//! The scenarios behind the committed `BENCH_*.json` snapshots, defined
//! once: each bench times them, and `tests/golden.rs` reruns them to
//! regenerate every modeled row. A scenario's `modeled_rows` is the only
//! place its modeled values are named, so a bench and the test cannot
//! disagree about what a snapshot holds. Every scenario is known-good:
//! the functions here panic when one fails to compile or run, which the
//! benches and the test treat as fatal.

use crate::load::{self, LoadReport};
use crate::snapshot::{Row, Value};
use genesis_core::accel::metadata::MetadataAccel;
use genesis_core::compile::{Compiler, PipelinePlan};
use genesis_core::device::{DeviceConfig, TierConfig};
use genesis_core::fault::FaultConfig;
use genesis_core::perf::AccelStats;
use genesis_core::serve::{GenesisServer, Request, ServerConfig};
use genesis_datagen::{DatagenConfig, Dataset};
use genesis_hw::EngineMode;
use genesis_obs::TraceConfig;
use genesis_sql::ast::{AggFn, BinOp, ColRef, Expr, SelectItem};
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::{Cigar, Column, DataType, Field, Schema, Table};
use std::path::Path;
use std::time::{Duration, Instant};

fn table_u32(cols: &[(&str, Vec<u32>)]) -> Table {
    let schema = Schema::new(cols.iter().map(|(n, _)| Field::new(n, DataType::U32)).collect());
    let columns = cols.iter().map(|(_, v)| Column::U32(v.clone())).collect();
    Table::from_columns(schema, columns).expect("columns match the schema")
}

/// A one-table catalog `T(X, K)`: pseudo-random `X` in 0..10,000 and
/// `K = i % k_mod`.
fn xk_catalog(rows: u32, k_mod: u32) -> Catalog {
    let x: Vec<u32> = (0..rows).map(|i| i.wrapping_mul(2654435761) % 10_000).collect();
    let k: Vec<u32> = (0..rows).map(|i| i % k_mod).collect();
    let mut cat = Catalog::new();
    cat.register("T", table_u32(&[("X", x), ("K", k)]));
    cat
}

fn scan(table: &str) -> LogicalPlan {
    LogicalPlan::Scan { table: table.to_owned(), partition: None }
}

fn col(name: &str) -> Expr {
    Expr::Col(ColRef::bare(name))
}

fn lt(name: &str, n: u64) -> Expr {
    Expr::Bin { op: BinOp::Lt, lhs: Box::new(col(name)), rhs: Box::new(Expr::Number(n)) }
}

/// `SELECT K, <aggs> FROM T GROUP BY K ORDER BY K`.
fn group_by_k(aggs: Vec<SelectItem>) -> LogicalPlan {
    let mut items = vec![SelectItem::Expr { expr: col("K"), alias: None }];
    items.extend(aggs);
    LogicalPlan::Sort {
        input: Box::new(LogicalPlan::Aggregate {
            input: Box::new(scan("T")),
            items,
            group_by: vec![ColRef::bare("K")],
        }),
        keys: vec![(ColRef::bare("K"), false)],
    }
}

fn sum_x(input: LogicalPlan) -> LogicalPlan {
    LogicalPlan::Aggregate {
        input: Box::new(input),
        items: vec![SelectItem::Agg { func: AggFn::Sum, arg: Some(col("X")), alias: None }],
        group_by: vec![],
    }
}

// --- engine_throughput -------------------------------------------------

/// The label every engine-bench overhead is relative to.
pub const ENGINE_BASE: &str = "fast/1t";

/// One configuration of the engine bench.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Snapshot label.
    pub label: &'static str,
    /// The metadata pipeline on this device, or `None` for the compiled
    /// spill-heavy aggregate.
    device: Option<DeviceConfig>,
}

impl Variant {
    /// The modeled rows of one run: cycles, flits and module ticks; the
    /// fault counters when the fault plane is armed; page traffic for the
    /// spill run.
    #[must_use]
    pub fn modeled_rows(&self, stats: &AccelStats) -> Vec<Row> {
        let l = self.label;
        let mut rows = vec![
            Row::modeled(l, "sim_cycles", stats.cycles),
            Row::modeled(l, "total_flits", stats.total_flits),
            Row::modeled(l, "module_ticks", stats.module_ticks),
        ];
        match &self.device {
            Some(device) if device.faults.is_active() => rows.extend([
                Row::modeled(l, "retries", stats.faults.retries),
                Row::modeled(l, "fallback_batches", stats.faults.fallback_batches),
            ]),
            Some(_) => {}
            None => {
                let modeled_secs = stats.cycles as f64 / DeviceConfig::small().clock_hz;
                let pcie_gbps = stats.tier_pcie_bytes as f64 / modeled_secs / 1e9;
                rows.extend([
                    Row::modeled(l, "pages_filled", stats.tier_pages_filled),
                    Row::modeled(l, "pages_spilled", stats.tier_pages_spilled),
                    Row::modeled(l, "prefetch_hits", stats.tier_prefetch_hits),
                    Row::modeled(l, "pcie_bytes", stats.tier_pcie_bytes),
                    Row::modeled(l, "modeled_pcie_gbps", Value::Fixed(pcie_gbps, 2)),
                    Row::modeled(
                        l,
                        "spill_wait_pct",
                        Value::Fixed(stats.stall_fractions()[4] * 100.0, 1),
                    ),
                ]);
            }
        }
        rows
    }
}

/// The engine bench: the metadata pipeline (4,000 reads, one host thread,
/// 5 kbp partitions) under each engine, thread count, trace, tier and
/// fault setting, plus a 256Ki-group aggregate whose two 2 MiB histograms
/// page against a 256 KiB modeled SPM.
pub struct EngineScenario {
    dataset: Dataset,
    spill_plan: LogicalPlan,
    spill_catalog: Catalog,
    /// Every variant, [`ENGINE_BASE`] among them.
    pub variants: Vec<Variant>,
}

/// Histogram domain of the spill-heavy aggregate: 16× the modeled SPM.
const SPILL_DOMAIN: u32 = 1 << 18;

impl EngineScenario {
    /// Builds the data sets; the `trace-export` variant writes its Chrome
    /// trace to `trace_path` (and `<trace_path>.stalls.txt`).
    #[must_use]
    pub fn new(trace_path: &Path) -> EngineScenario {
        let dataset = Dataset::generate(&DatagenConfig {
            num_reads: 4_000,
            chrom_len: 100_000,
            num_chromosomes: 2,
            ..DatagenConfig::tiny()
        });
        let ks: Vec<u32> = (0..SPILL_DOMAIN).collect();
        let ws: Vec<u32> = ks.iter().map(|k| k % 251).collect();
        let mut spill_catalog = Catalog::new();
        spill_catalog.register("T", table_u32(&[("K", ks), ("W", ws)]));
        let spill_plan = group_by_k(vec![
            SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
            SelectItem::Agg { func: AggFn::Sum, arg: Some(col("W")), alias: None },
        ]);

        let base = || DeviceConfig::small().with_psize(5_000).with_host_threads(1);
        // Armed but silent: per-attempt rolls on every batch, every rate zero.
        let armed = FaultConfig { max_retries: 3, ..FaultConfig::default() };
        // ~15 % DMA failures, 5 % device faults, no backoff sleeps: the
        // run times recovery work, not pauses.
        let recovering = FaultConfig {
            seed: 7,
            dma_fail_ppm: 150_000,
            device_fail_ppm: 50_000,
            mem_spike_ppm: 1_000,
            mem_spike_cycles: 200,
            max_retries: 3,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            fallback: true,
        };
        let metadata = |label, device| Variant { label, device: Some(device) };
        let variants = vec![
            metadata("reference/1t", base().with_engine(EngineMode::Reference)),
            metadata(ENGINE_BASE, base()),
            metadata("fast/2t", base().with_host_threads(2)),
            metadata("fast/4t", base().with_host_threads(4)),
            metadata("fast/8t", base().with_host_threads(8)),
            metadata("trace-on", base().with_trace(TraceConfig::on())),
            metadata("trace-export", base().with_trace(TraceConfig::to_path(trace_path))),
            metadata("tiers-pinned", base().with_tiers(TierConfig::default())),
            metadata("faults-armed", base().with_faults(armed)),
            metadata("faults-recovering", base().with_faults(recovering)),
            Variant { label: "spill-heavy", device: None },
        ];
        EngineScenario { dataset, spill_plan, spill_catalog, variants }
    }

    /// Runs one variant once.
    #[must_use]
    pub fn run(&self, variant: &Variant) -> AccelStats {
        match &variant.device {
            Some(device) => {
                let accel = MetadataAccel::new(device.clone());
                accel.run(&self.dataset.reads, &self.dataset.genome).expect("metadata accel").1
            }
            None => {
                let tiers = TierConfig { spm_bytes: 256 << 10, ..TierConfig::default() };
                let device = DeviceConfig::small().with_tiers(tiers).with_psize(SPILL_DOMAIN + 1);
                let compiled = Compiler::new(device)
                    .compile(&self.spill_plan, &self.spill_catalog)
                    .expect("compiles under tiers");
                compiled.execute_replicated(&self.spill_catalog, 1).expect("tiered run").1
            }
        }
    }
}

// --- pipeline_replication ----------------------------------------------

/// One query shape at 1× and at its cost-model-chosen factor (Figure 8).
#[derive(Debug, Clone)]
pub struct Replication {
    /// Snapshot label.
    pub label: &'static str,
    /// The cost model's factor.
    pub chosen_factor: usize,
    /// The bound that chose it.
    pub limited_by: String,
    /// Input rows.
    pub rows: usize,
    /// Simulated cycles at 1×.
    pub cycles_1x: u64,
    /// Simulated cycles at the chosen factor.
    pub cycles_chosen: u64,
}

impl Replication {
    /// Cycle speedup of the chosen factor over 1×.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.cycles_1x as f64 / self.cycles_chosen as f64
    }
}

/// Compiles a scalar sum (16×, policy cap), a grouped count under ORDER
/// BY (8×, memory channels) and a filtered projection whose pushed
/// filter's selectivity bounds the factor (8×), over one 24,000-row
/// table, and runs each at 1× and at the chosen factor.
#[must_use]
pub fn replication_workloads() -> Vec<Replication> {
    const ROWS: u32 = 24_000;
    let catalog = xk_catalog(ROWS, 512);
    let filtered_projection = LogicalPlan::Project {
        input: Box::new(LogicalPlan::Filter { input: Box::new(scan("T")), pred: lt("X", 5_000) }),
        items: vec![
            SelectItem::Expr { expr: col("K"), alias: None },
            SelectItem::Expr {
                expr: Expr::Bin {
                    op: BinOp::Add,
                    lhs: Box::new(col("X")),
                    rhs: Box::new(col("K")),
                },
                alias: Some("XK".to_owned()),
            },
        ],
    };
    let shapes = [
        ("scalar_sum", sum_x(scan("T"))),
        (
            "grouped_count",
            group_by_k(vec![SelectItem::Agg { func: AggFn::Count, arg: None, alias: None }]),
        ),
        ("filtered_projection", filtered_projection),
    ];
    let compiler = Compiler::new(DeviceConfig::default());
    shapes
        .into_iter()
        .map(|(label, plan)| {
            let compiled = compiler.compile(&plan, &catalog).expect("workload must compile");
            let chosen = compiled.replication().factor;
            let (_, base) = compiled.execute_replicated(&catalog, 1).expect("1x run");
            let (_, repl) = compiled.execute_replicated(&catalog, chosen).expect("chosen run");
            Replication {
                label,
                chosen_factor: chosen,
                limited_by: format!("{:?}", compiled.replication().limited_by),
                rows: ROWS as usize,
                cycles_1x: base.cycles,
                cycles_chosen: repl.cycles,
            }
        })
        .collect()
}

/// The replication snapshot: every value is modeled, the best speedup too.
#[must_use]
pub fn replication_rows(workloads: &[Replication]) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in workloads {
        rows.extend([
            Row::modeled(w.label, "chosen_factor", w.chosen_factor),
            Row::modeled(w.label, "limited_by", Value::Text(w.limited_by.clone())),
            Row::modeled(w.label, "rows", w.rows),
            Row::modeled(w.label, "cycles_1x", w.cycles_1x),
            Row::modeled(w.label, "cycles_chosen", w.cycles_chosen),
            Row::modeled(w.label, "speedup", Value::Fixed(w.speedup(), 2)),
        ]);
    }
    let best = workloads.iter().map(Replication::speedup).fold(0.0f64, f64::max);
    rows.push(Row::modeled("best", "speedup", Value::Fixed(best, 2)));
    rows
}

// --- workloads ---------------------------------------------------------

const COVERAGE_SQL: &str = "\
    CREATE TABLE Bases AS\n\
    ReadExplode (READS.POS, READS.CIGAR, READS.SEQ)\n\
    FROM READS\n\
    INSERT INTO Coverage\n\
    SELECT POS, COUNT(*)\n\
    FROM Bases\n\
    WHERE POS < 4096\n\
    GROUP BY POS\n\
    ORDER BY POS";

/// A ~10%-selective filtered scan: `POS = i*3 + 1` keeps rows `i < 800`
/// of the 8 000 pairs. With pushdown the predicate is absorbed into the
/// scan (surviving rows only reach the device and the replication
/// chooser caps the factor at the selectivity); without it the same
/// conjunct runs as a hardware Filter module over the full stream.
const PUSHDOWN_SQL: &str = "\
    INSERT INTO Selected\n\
    SELECT *\n\
    FROM PAIRS\n\
    WHERE POS < 2400";

const MATE_DISTANCE_SQL: &str = "\
    CREATE TABLE RefPos AS\n\
    PosExplode (REF.SEQ, REF.POS)\n\
    FROM REF\n\
    CREATE TABLE Joined AS\n\
    SELECT *\n\
    FROM PAIRS\n\
    INNER JOIN RefPos\n\
    ON PAIRS.POS = RefPos.POS\n\
    CREATE TABLE Dist AS\n\
    SELECT PAIRS.MPOS - PAIRS.POS AS D\n\
    FROM Joined\n\
    INSERT INTO MateHist\n\
    SELECT D, COUNT(*)\n\
    FROM Dist\n\
    GROUP BY D\n\
    ORDER BY D";

/// Mixed CIGAR shapes with the query length each consumes.
const CIGARS: [(&str, usize); 6] =
    [("8M", 8), ("4M1I3M", 8), ("2S6M", 8), ("3M2D5M", 8), ("5M3S", 8), ("1S4M1D2M1I1M", 9)];

/// The genomics catalog: 1,300 `READS` at ascending positions inside the
/// 4,096 bp coverage window, 8,000 `PAIRS` at strictly ascending unique
/// positions, and one `REF` row covering them (~24 kbp).
#[must_use]
pub fn genomics_catalog() -> Catalog {
    const READS: usize = 1_300;
    const PAIRS: usize = 8_000;
    let mut pos = Vec::new();
    let mut cigars = Vec::new();
    let mut seqs = Vec::new();
    for i in 0..READS {
        let (cg, qlen) = CIGARS[i % CIGARS.len()];
        pos.push((i as u32) * 3 + 1);
        cigars.push(cg.parse::<Cigar>().expect("valid CIGAR").pack().expect("packs"));
        seqs.push((0..qlen).map(|j| ((i + j) % 4) as u8).collect::<Vec<u8>>());
    }
    let reads = Table::from_columns(
        Schema::new(vec![
            Field::new("POS", DataType::U32),
            Field::new("CIGAR", DataType::ListU16),
            Field::new("SEQ", DataType::ListU8),
        ]),
        vec![Column::U32(pos), Column::ListU16(cigars), Column::ListU8(seqs)],
    )
    .expect("columns match the schema");
    let ppos: Vec<u32> = (0..PAIRS).map(|i| (i as u32) * 3 + 1).collect();
    let mpos: Vec<u32> = ppos.iter().enumerate().map(|(i, &p)| p + 40 + (i as u32 % 16)).collect();
    let reference = Table::from_columns(
        Schema::new(vec![Field::new("POS", DataType::U32), Field::new("SEQ", DataType::ListU8)]),
        vec![
            Column::U32(vec![0]),
            Column::ListU8(vec![(0..PAIRS * 3 + 64).map(|j| (j % 4) as u8).collect()]),
        ],
    )
    .expect("columns match the schema");
    let mut cat = Catalog::new();
    cat.register("READS", reads);
    cat.register("PAIRS", table_u32(&[("POS", ppos), ("MPOS", mpos)]));
    cat.register("REF", reference);
    cat
}

/// One genomics query compiled from SQL through the general path.
#[derive(Debug, Clone)]
pub struct GenomicsWorkload {
    /// Snapshot label.
    pub label: &'static str,
    sql: &'static str,
    device: DeviceConfig,
}

/// Coverage/pileup (`ReadExplode` + grouped count), mate-distance
/// histogram (`PosExplode` + join), and the selective scan with pushdown
/// on and off.
#[must_use]
pub fn genomics_workloads() -> Vec<GenomicsWorkload> {
    let w = |label, sql, device| GenomicsWorkload { label, sql, device };
    vec![
        w("coverage_pileup", COVERAGE_SQL, DeviceConfig::default()),
        w("mate_distance", MATE_DISTANCE_SQL, DeviceConfig::default()),
        w("pushdown_on", PUSHDOWN_SQL, DeviceConfig::default()),
        w("pushdown_off", PUSHDOWN_SQL, DeviceConfig::default().with_pushdown(false)),
    ]
}

/// One run of a compiled genomics workload at its chosen factor.
#[derive(Debug, Clone)]
pub struct GenomicsRun {
    /// The cost model's replication factor.
    pub factor: usize,
    /// Simulation statistics.
    pub stats: AccelStats,
    /// Result rows.
    pub out_rows: usize,
}

impl GenomicsWorkload {
    /// Compiles the workload's SQL against `catalog`.
    #[must_use]
    pub fn compile(&self, catalog: &Catalog) -> PipelinePlan {
        Compiler::new(self.device.clone())
            .compile_sql(self.sql, catalog)
            .expect("workload must compile")
    }

    /// Runs a compiled plan once at its cost-model-chosen factor.
    #[must_use]
    pub fn execute(plan: &PipelinePlan, catalog: &Catalog) -> GenomicsRun {
        let factor = plan.replication().factor;
        let (out, stats) = plan.execute_replicated(catalog, factor).expect("workload run");
        GenomicsRun { factor, stats, out_rows: out.num_rows() }
    }

    /// The modeled rows of one run.
    #[must_use]
    pub fn modeled_rows(&self, run: &GenomicsRun) -> Vec<Row> {
        let l = self.label;
        vec![
            Row::modeled(l, "chosen_factor", run.factor),
            Row::modeled(l, "sim_cycles", run.stats.cycles),
            Row::modeled(l, "total_flits", run.stats.total_flits),
            Row::modeled(l, "module_ticks", run.stats.module_ticks),
            Row::modeled(l, "out_rows", run.out_rows),
        ]
    }
}

// --- serve_throughput --------------------------------------------------

/// How many times a cache run submits each of the three shapes.
const CACHE_REPEATS: usize = 12;

/// Three distinct shapes so a mixed run exercises several cache entries:
/// scalar sum, filtered sum, filtered projection.
fn serve_shapes() -> [LogicalPlan; 3] {
    let projection = LogicalPlan::Project {
        input: Box::new(LogicalPlan::Filter {
            input: Box::new(scan("T")),
            pred: Expr::Bin {
                op: BinOp::Gt,
                lhs: Box::new(col("X")),
                rhs: Box::new(Expr::Number(9_000)),
            },
        }),
        items: vec![SelectItem::Expr { expr: col("K"), alias: None }],
    };
    [
        sum_x(scan("T")),
        sum_x(LogicalPlan::Filter { input: Box::new(scan("T")), pred: lt("X", 5_000) }),
        projection,
    ]
}

/// The pipeline cache's effect on one device: every shape submitted
/// `CACHE_REPEATS` (12) times.
#[derive(Debug, Clone)]
pub struct CacheRun {
    /// Snapshot label.
    pub label: &'static str,
    /// Jobs submitted.
    pub jobs: usize,
    /// Cache misses (each compiles and pays the reconfiguration penalty).
    pub misses: u64,
    /// Cache hits.
    pub hits: u64,
    /// Host compile time, summed.
    pub compile: Duration,
    /// Modeled reconfiguration cycles, summed.
    pub reconfig_cycles: u64,
    /// Compile time + modeled reconfiguration time, per job.
    pub overhead_per_job: Duration,
}

/// Submits every shape `CACHE_REPEATS` (12) times to a one-device server
/// with the pipeline cache disabled (every submit recompiles and pays the
/// reconfiguration penalty), then with a 32-entry cache.
#[must_use]
pub fn cache_runs() -> [CacheRun; 2] {
    [CacheRun::run("cold (cache disabled)", 0), CacheRun::run("warm (cache enabled)", 32)]
}

impl CacheRun {
    fn run(label: &'static str, cache_capacity: usize) -> CacheRun {
        let cat = xk_catalog(8_192, 64);
        let device = DeviceConfig::small();
        let server = GenesisServer::new(
            ServerConfig::default()
                .with_devices(1, device.clone())
                .with_cache_capacity(cache_capacity),
        );
        let mut reconfig_cycles = 0;
        let mut jobs = 0;
        for _ in 0..CACHE_REPEATS {
            for shape in serve_shapes() {
                let (_, stats) = server
                    .submit(Request::new("bench", shape), &cat)
                    .and_then(|ticket| ticket.wait())
                    .expect("cache job");
                reconfig_cycles += stats.reconfig_cycles;
                jobs += 1;
            }
        }
        let compile_ns =
            server.metrics_snapshot().histograms.get("server.compile_ns").map_or(0, |h| h.sum);
        let cache = server.cache_stats();
        let compile = Duration::from_nanos(compile_ns);
        let overhead = compile + device.cycles_to_time(reconfig_cycles);
        CacheRun {
            label,
            jobs,
            misses: cache.misses,
            hits: cache.hits,
            compile,
            reconfig_cycles,
            overhead_per_job: overhead / jobs as u32,
        }
    }
}

/// The mixed three-tenant job set (24 jobs) on an n-device pool.
#[derive(Debug, Clone)]
pub struct PoolRun {
    /// Pool size.
    pub devices: usize,
    /// Jobs run.
    pub jobs: usize,
    /// Wall clock from resume to the last result.
    pub wall: Duration,
    /// Modeled busy time of the busiest device.
    pub modeled_makespan: Duration,
}

impl PoolRun {
    /// Queues the jobs on a paused server, then resumes and drains it.
    /// Reconfiguration is free here: the three one-off misses would hide
    /// the steady-state balance the pool provides.
    #[must_use]
    pub fn run(devices: usize) -> PoolRun {
        let cat = xk_catalog(8_192, 64);
        let mut cfg = ServerConfig::default()
            .with_devices(devices, DeviceConfig::small())
            .with_reconfig_penalty(0);
        cfg.paused = true;
        let server = GenesisServer::new(cfg);
        let mut tickets = Vec::new();
        for round in 0..8 {
            for (t, tenant) in ["alice", "bob", "carol"].into_iter().enumerate() {
                let shape = serve_shapes()[(round + t) % 3].clone();
                tickets.push(server.submit(Request::new(tenant, shape), &cat).expect("admitted"));
            }
        }
        let jobs = tickets.len();
        let start = Instant::now();
        server.resume();
        for ticket in tickets {
            ticket.wait().expect("pool job");
        }
        let wall = start.elapsed();
        let modeled_makespan = server.modeled_device_time().into_iter().max().unwrap_or_default();
        PoolRun { devices, jobs, wall, modeled_makespan }
    }

    /// Snapshot label.
    #[must_use]
    pub fn label(&self) -> String {
        format!("pool {}dev", self.devices)
    }

    /// Jobs per second of modeled makespan.
    #[must_use]
    pub fn modeled_jobs_per_sec(&self) -> f64 {
        self.jobs as f64 / self.modeled_makespan.as_secs_f64().max(1e-12)
    }
}

/// Rows in the load-generator table: 4 chromosomes × 1,024 positions,
/// spanning several PSIZE windows so 4-way sharding has clean
/// (chromosome, window) boundaries to split on.
const LOAD_ROWS: u32 = 4_096;

/// The load rows' `R(CHR, POS, X)` table.
fn load_catalog() -> Catalog {
    let n = LOAD_ROWS;
    let chr: Vec<u8> = (0..n).map(|i| (i / (n / 4)) as u8).collect();
    let pos: Vec<u32> = (0..n).map(|i| (i % (n / 4)) * 2_500).collect();
    let x: Vec<u32> = (0..n).map(|i| i.wrapping_mul(2654435761) % 10_000).collect();
    let table = Table::from_columns(
        Schema::new(vec![
            Field::new("CHR", DataType::U8),
            Field::new("POS", DataType::U32),
            Field::new("X", DataType::U32),
        ]),
        vec![Column::U8(chr), Column::U32(pos), Column::U32(x)],
    )
    .expect("columns match the schema");
    let mut cat = Catalog::new();
    cat.register("R", table);
    cat
}

/// One sequential closed-loop client sends `requests` copies of `SELECT
/// SUM(X) FROM R` (the cheapest shape to gather, so the row measures the
/// serving path rather than the merge) to a 4-device pool with free
/// reconfiguration, each job fanned out to `shards` shards. Unsharded,
/// every job lands whole on the first idle device, so sharding is the
/// only way the stream can use the pool.
#[must_use]
pub fn closed_loop_run(shards: usize, requests: usize) -> LoadReport {
    let server = GenesisServer::new(
        ServerConfig::default()
            .with_devices(4, DeviceConfig::small())
            .with_reconfig_penalty(0)
            .with_shards(shards),
    );
    let label = if shards > 1 { "closed sharded 4dev" } else { "closed unsharded 4dev" };
    load::closed_loop(&server, &load_catalog(), &sum_x(scan("R")), 1, requests, label)
}

/// Four open-loop tenants offer `requests` of the same query, each with a
/// 20 ms deadline, to one device behind a 256-deep queue: far beyond its
/// capacity, so the server must shed load while in-SLO completions flow.
#[must_use]
pub fn open_overload_run(requests: usize) -> LoadReport {
    let server = GenesisServer::new(
        ServerConfig::default()
            .with_devices(1, DeviceConfig::small())
            .with_reconfig_penalty(0)
            .with_max_pending(256),
    );
    let plan = sum_x(scan("R"));
    load::open_loop(
        &server,
        &load_catalog(),
        &plan,
        4,
        requests,
        Duration::from_millis(20),
        "open overload 1dev",
    )
}

/// The serving snapshot's modeled rows: cache counts, the 1-device pool
/// makespan, and the closed-loop modeled goodputs with their ratio. Every
/// closed-loop request is the same plan on the same table, so modeled
/// goodput is a per-request constant that any loop length reproduces.
/// A multi-device makespan is not here: which worker frees first is
/// host timing.
#[must_use]
pub fn serve_modeled_rows(
    cache: &[CacheRun],
    one_device: &PoolRun,
    unsharded: &LoadReport,
    sharded: &LoadReport,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for run in cache {
        rows.extend([
            Row::modeled(run.label, "jobs", run.jobs),
            Row::modeled(run.label, "misses", run.misses),
            Row::modeled(run.label, "hits", run.hits),
            Row::modeled(run.label, "reconfig_cycles", run.reconfig_cycles),
        ]);
    }
    let pool = one_device.label();
    rows.extend([
        Row::modeled(&pool, "jobs", one_device.jobs),
        Row::modeled(
            &pool,
            "modeled_makespan_us",
            Value::Fixed(one_device.modeled_makespan.as_secs_f64() * 1e6, 1),
        ),
        Row::modeled(
            &pool,
            "modeled_jobs_per_sec",
            Value::Fixed(one_device.modeled_jobs_per_sec(), 0),
        ),
    ]);
    for r in [unsharded, sharded] {
        rows.push(Row::modeled(
            &r.label,
            "modeled_goodput_per_sec",
            Value::Fixed(r.modeled_goodput_per_sec, 0),
        ));
    }
    rows.push(Row::modeled(
        &sharded.label,
        "modeled_goodput_gain",
        Value::Fixed(shard_gain(unsharded, sharded), 1),
    ));
    rows
}

/// Modeled goodput of the sharded closed loop over the unsharded one.
#[must_use]
pub fn shard_gain(unsharded: &LoadReport, sharded: &LoadReport) -> f64 {
    sharded.modeled_goodput_per_sec / unsharded.modeled_goodput_per_sec.max(1e-12)
}
