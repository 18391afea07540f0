//! The four workloads: seeded input generation, set-up, one operation,
//! the same operation replayed as separately timed layer calls, and the
//! oracle checks. Only `pub` items of the product crates are used.
//!
//! Inputs are built so that the *amount* of work does not depend on the
//! seed: the seed permutes a fixed multiset (row order, literal order,
//! CIGAR order, the order reads arrive in). Counts of modeled cycles and
//! allocated bytes therefore agree across seeds (exactly on `serve_hot`
//! and `serve_adhoc`, nearly elsewhere, where order decides ties), and
//! wall-clock spread across seeds measures the host, not the data.

use crate::calib::{splitmix64, Phase, PhaseClock};
use crate::host;
use crate::trace::Recorder;
use genesis_core::accel::bqsr::accelerated_bqsr_table;
use genesis_core::accel::markdup::accelerated_mark_duplicates;
use genesis_core::accel::metadata::accelerated_metadata_update;
use genesis_core::compile::{script_to_plan, Compiler};
use genesis_core::device::DeviceConfig;
use genesis_core::perf::AccelStats;
use genesis_core::serve::{fingerprint, GenesisServer, Request, ServerConfig};
use genesis_datagen::{DatagenConfig, Dataset};
use genesis_gatk::bqsr::build_covariate_table;
use genesis_gatk::markdup::mark_duplicates;
use genesis_gatk::metadata::set_nm_md_uq_tags;
use genesis_gatk::{CovariateTable, MarkDupReport};
use genesis_obs::trace::TraceConfig;
use genesis_sql::exec::{execute_plan, Env};
use genesis_sql::{Catalog, LogicalPlan, Script};
use genesis_types::{Base, Cigar, Column, DataType, Field, ReadRecord, Schema, Table};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Seconds of measured operations the op counts below are sized for on
/// the reference host; `--seconds` scales them linearly.
pub const REF_SECONDS: f64 = 12.0;
/// Fresh set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// One traced operation per this many measured ones.
pub const TRACE_DIVISOR: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServeHot,
    ServeAdhoc,
    ServeGenomics,
    Stages,
}

/// Fixed sizes of one workload; `BENCHMARK.json` records why each was chosen.
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Measured operations at [`REF_SECONDS`].
    pub ops: usize,
    /// Operations per calibration-bracketed block (≈ 50 ms, or one
    /// operation where a single one is longer than that).
    pub block: usize,
    /// Kernel runs per calibration: more where blocks are long, so the
    /// bracket stays a comparable share of the block.
    pub cal_reps: u32,
    /// Warm-up operations inside each timed set-up (≥ 100 ms of work).
    pub warmup: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        kind: Kind::ServeHot,
        name: "serve_hot",
        ops: 14_400,
        block: 60,
        cal_reps: 1,
        warmup: 240,
    },
    Spec {
        kind: Kind::ServeAdhoc,
        name: "serve_adhoc",
        ops: 10_800,
        block: 50,
        cal_reps: 1,
        warmup: 300,
    },
    Spec {
        kind: Kind::ServeGenomics,
        name: "serve_genomics",
        ops: 432,
        block: 4,
        cal_reps: 1,
        warmup: 8,
    },
    Spec {
        kind: Kind::Stages,
        name: "stages",
        ops: 30,
        block: 1,
        cal_reps: 4,
        warmup: 1,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Sizes of one run, derived from a [`Spec`] and `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    pub ops: usize,
    pub block: usize,
    pub cal_reps: u32,
    pub warmup: usize,
    pub setups: usize,
    pub trace_ops: usize,
    /// Divides table and read counts; 1 outside the smoke test.
    pub data_div: usize,
}

impl RunPlan {
    pub fn new(spec: &Spec, seconds: f64, smoke: bool) -> RunPlan {
        let scale = seconds / REF_SECONDS;
        let ops = ((spec.ops as f64 * scale) as usize / spec.block).max(1) * spec.block;
        RunPlan {
            ops,
            block: spec.block,
            cal_reps: spec.cal_reps,
            warmup: if smoke {
                spec.block.min(spec.warmup)
            } else {
                spec.warmup
            },
            setups: if smoke { 2 } else { SETUPS },
            trace_ops: (ops / TRACE_DIVISOR / spec.block).max(1) * spec.block,
            data_div: if smoke { 10 } else { 1 },
        }
    }
}

/// How an operation's result is judged.
pub enum Verdict {
    /// Already compared against the verified twin (or the op errored).
    Known(bool),
    /// Result table to compare after the block's closing calibration, so
    /// hashing stays out of the measured span.
    Table(Table),
}

pub struct OpOutcome {
    /// Submit → result, on the caller's clock.
    pub latency_ns: u64,
    /// Bytes requested process-wide (server threads included) meanwhile.
    pub alloc_bytes: u64,
    pub stats: AccelStats,
    pub verdict: Verdict,
}

/// Counters a workload reads from the serving layer after the measured pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub compile_ns: u64,
    pub dispatches: u64,
    pub queue_depth_max: u64,
}

pub trait Workload {
    /// Runs operation `idx` of the deterministic sequence.
    fn run_op(&mut self, idx: usize) -> OpOutcome;
    /// Replays operation `idx` as separately timed calls into each layer,
    /// then once end to end; the outcome is that of the end-to-end call.
    fn trace_op(&mut self, idx: usize, rec: &mut Recorder) -> OpOutcome;
    /// Compares a result table with the verified twin of operation `idx`.
    fn check(&self, idx: usize, table: &Table) -> bool;
    /// Oracle checks outside every timer: `after_ops` operations have run.
    /// Returns (checks made, checks failed).
    fn verify(&mut self, after_ops: usize) -> (usize, usize);
    /// Cumulative serving-layer counters; zero where there is no server.
    fn serve_counters(&self) -> ServeCounters {
        ServeCounters::default()
    }
    /// True when every operation misses the plan cache by construction.
    fn compiles_every_op(&self) -> bool {
        false
    }
}

pub fn set_up(
    kind: Kind,
    seed: u64,
    plan: &RunPlan,
    clock: &mut PhaseClock,
) -> Result<Box<dyn Workload>, String> {
    Ok(match kind {
        Kind::Stages => Box::new(Stages::set_up(seed, plan, clock)?),
        _ => Box::new(Serve::set_up(kind, seed, plan, clock)?),
    })
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Times `f`, returning its value with elapsed nanoseconds and bytes requested.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let alloc0 = host::alloc_bytes();
    let t0 = Instant::now();
    let out = f();
    let elapsed = ns(t0.elapsed());
    (out, elapsed, host::alloc_bytes() - alloc0)
}

fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Row count and content hash of a table (schema names, then cells).
fn digest(t: &Table) -> (usize, u64) {
    let mut h = DefaultHasher::new();
    for f in t.schema().fields() {
        f.name.hash(&mut h);
    }
    for c in 0..t.num_columns() {
        let col = t.column_at(c);
        for r in 0..t.num_rows() {
            col.get(r).hash(&mut h);
        }
    }
    (t.num_rows(), h.finish())
}

fn device_small() -> DeviceConfig {
    DeviceConfig::small()
        .with_host_threads(1)
        .with_trace(TraceConfig::off())
}

// ---------------------------------------------------------------- serve

const TENANT: &str = "bench";
/// `T.X` holds the multiples of this below `ROWS × X_STEP`, in seeded order.
const X_STEP: u32 = 64;
const ROWS: usize = 8_192;

const HOT_SQL: [&str; 3] = [
    "INSERT INTO Out SELECT SUM(X) FROM T",
    // Half the rows.
    "INSERT INTO Out SELECT SUM(X) FROM T WHERE X < 262144",
    // A tenth of the rows.
    "INSERT INTO Out SELECT K FROM T WHERE X > 471859",
];

/// Coverage/pileup and mate-distance, the SQL of `tests/workloads.rs`.
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
const GENOMICS_SCRIPTS: [(&str, &str); 2] = [
    ("coverage", COVERAGE_SQL),
    ("mate_distance", MATE_DISTANCE_SQL),
];
/// One round: three pileups, one mate-distance histogram.
const GENOMICS_ROUND: [usize; 4] = [0, 0, 0, 1];
const GENOMICS_READS: usize = 1_300;
const GENOMICS_PAIRS: usize = 8_000;
const CIGARS: [(&str, usize); 6] = [
    ("8M", 8),
    ("4M1I3M", 8),
    ("2S6M", 8),
    ("3M2D5M", 8),
    ("5M3S", 8),
    ("1S4M1D2M1I1M", 9),
];

/// One in this many `serve_adhoc` operations is re-run on the software
/// engine after the pass; every one is checked against the closed form.
const ADHOC_ORACLE_STRIDE: usize = 64;

/// A plan submitted repeatedly, with the digest of its verified result.
struct Shape {
    sql: &'static str,
    plan: LogicalPlan,
    expected: Option<(usize, u64)>,
    /// Digest the warm-up run produced, checked against the oracle later.
    warm: Option<(usize, u64)>,
}

/// Literals of `serve_adhoc`: operation `i` filters `X < planned[i]`.
/// Measured operations draw a seeded permutation of one fixed set, so
/// their total work is the same for every seed; warm-up draws from a
/// disjoint range so no literal ever repeats.
struct Literals {
    planned: Vec<u32>,
    x_max: u32,
}

impl Literals {
    fn new(ops: usize, rows: usize, state: &mut u64) -> Literals {
        let x_max = rows as u32 * X_STEP;
        // Planned literals spread over the middle three quarters of X.
        let lo = x_max / 8;
        let stride = ((x_max / 4 * 3) as usize / ops.max(1)).max(1) as u32;
        let mut planned: Vec<u32> = (0..ops as u32).map(|i| lo + i * stride).collect();
        shuffle(&mut planned, state);
        Literals { planned, x_max }
    }

    fn planned(&self, idx: usize) -> u32 {
        self.planned[idx]
    }

    /// Warm-up literals: the bottom eighth, one apart.
    fn warmup(&self, idx: usize) -> u32 {
        self.x_max / 16 + 1 + idx as u32
    }
}

fn adhoc_sql(literal: u32) -> String {
    format!("INSERT INTO Out SELECT SUM(X) FROM T WHERE X < {literal}")
}

/// `SUM(X) WHERE X < literal` over the multiples of `X_STEP`.
fn adhoc_sum(literal: u32) -> u64 {
    let count = u64::from(literal.div_ceil(X_STEP));
    u64::from(X_STEP) * count * count.saturating_sub(1) / 2
}

struct Serve {
    kind: Kind,
    catalog: Catalog,
    compiler: Compiler,
    server: GenesisServer,
    shapes: Vec<Shape>,
    literals: Option<Literals>,
    /// Schema digest of a verified `serve_adhoc` result (one row, one sum).
    adhoc_names: Vec<String>,
    warmup_done: usize,
}

fn table_t(rows: usize, state: &mut u64) -> (Vec<u32>, Vec<u32>) {
    let mut x: Vec<u32> = (0..rows as u32).map(|j| j * X_STEP).collect();
    shuffle(&mut x, state);
    let k = (0..rows as u32).map(|i| i % 64).collect();
    (x, k)
}

/// Generated column data, before it becomes tables.
enum Columns {
    /// `T.X`, `T.K` of `serve_hot` and `serve_adhoc`.
    T(Vec<u32>, Vec<u32>),
    Genomics(GenomicsColumns),
}

struct GenomicsColumns {
    pos: Vec<u32>,
    cigars: Vec<Vec<u16>>,
    seqs: Vec<Vec<u8>>,
    pair_pos: Vec<u32>,
    mpos: Vec<u32>,
    reference: Vec<u8>,
}

fn genomics_columns(reads: usize, pairs: usize, state: &mut u64) -> GenomicsColumns {
    let bases = ['A', 'C', 'G', 'T'].map(|c| Base::try_from(c).expect("ACGT are bases").code());
    // Every CIGAR shape equally often, in seeded order.
    let mut shape: Vec<usize> = (0..reads).map(|i| i % CIGARS.len()).collect();
    shuffle(&mut shape, state);
    let mut cigars = Vec::with_capacity(reads);
    let mut seqs = Vec::with_capacity(reads);
    for &s in &shape {
        let (text, qlen) = CIGARS[s];
        let cigar: Cigar = text.parse().expect("fixed CIGAR text parses");
        cigars.push(cigar.pack().expect("fixed CIGAR packs"));
        seqs.push(
            (0..qlen)
                .map(|_| bases[(splitmix64(state) % 4) as usize])
                .collect(),
        );
    }
    // Strictly increasing unique positions: the join merges sorted keys.
    let position = |i: usize| i as u32 * 3 + 1;
    // Insert sizes 40..56, each equally often, in seeded order.
    let mut spread: Vec<u32> = (0..pairs as u32).map(|i| i % 16).collect();
    shuffle(&mut spread, state);
    GenomicsColumns {
        pos: (0..reads).map(position).collect(),
        cigars,
        seqs,
        pair_pos: (0..pairs).map(position).collect(),
        mpos: (0..pairs).map(|i| position(i) + 40 + spread[i]).collect(),
        reference: (0..pairs * 3 + 16)
            .map(|_| bases[(splitmix64(state) % 4) as usize])
            .collect(),
    }
}

fn genomics_catalog(cols: GenomicsColumns) -> Result<Catalog, String> {
    let u32f = |n: &str| Field::new(n, DataType::U32);
    let reads = Table::from_columns(
        Schema::new(vec![
            u32f("POS"),
            Field::new("CIGAR", DataType::ListU16),
            Field::new("SEQ", DataType::ListU8),
        ]),
        vec![
            Column::U32(cols.pos),
            Column::ListU16(cols.cigars),
            Column::ListU8(cols.seqs),
        ],
    );
    let pairs = Table::from_columns(
        Schema::new(vec![u32f("POS"), u32f("MPOS")]),
        vec![Column::U32(cols.pair_pos), Column::U32(cols.mpos)],
    );
    let reference = Table::from_columns(
        Schema::new(vec![u32f("POS"), Field::new("SEQ", DataType::ListU8)]),
        vec![Column::U32(vec![0]), Column::ListU8(vec![cols.reference])],
    );
    let mut cat = Catalog::new();
    for (name, table) in [("READS", reads), ("PAIRS", pairs), ("REF", reference)] {
        cat.register(name, table.map_err(|e| format!("table {name}: {e}"))?);
    }
    Ok(cat)
}

impl Serve {
    fn set_up(
        kind: Kind,
        seed: u64,
        plan: &RunPlan,
        clock: &mut PhaseClock,
    ) -> Result<Serve, String> {
        let mut state = seed;
        let rows = ROWS / plan.data_div;

        // Inputs from the seed.
        let mut literals = None;
        let columns = clock.time(Phase::Datagen, || {
            if kind == Kind::ServeGenomics {
                Columns::Genomics(genomics_columns(
                    GENOMICS_READS / plan.data_div,
                    GENOMICS_PAIRS / plan.data_div,
                    &mut state,
                ))
            } else {
                let (x, k) = table_t(rows, &mut state);
                if kind == Kind::ServeAdhoc {
                    literals = Some(Literals::new(plan.ops, rows, &mut state));
                }
                Columns::T(x, k)
            }
        });

        let catalog = clock.time(Phase::Catalog, || match columns {
            Columns::Genomics(cols) => genomics_catalog(cols),
            Columns::T(x, k) => {
                let table = Table::from_columns(
                    Schema::new(vec![
                        Field::new("X", DataType::U32),
                        Field::new("K", DataType::U32),
                    ]),
                    vec![Column::U32(x), Column::U32(k)],
                )
                .map_err(|e| format!("table T: {e}"))?;
                let mut cat = Catalog::new();
                cat.register("T", table);
                Ok(cat)
            }
        })?;

        // Compiler, server, and the plans submitted by name or by value.
        let (compiler, server, shapes) = clock.time(Phase::ServerStart, || {
            let device = device_small();
            let compiler = Compiler::new(device.clone());
            let shards = if kind == Kind::ServeGenomics { 2 } else { 1 };
            let server = GenesisServer::new(
                ServerConfig::default()
                    .with_devices(1, device)
                    .with_shards(shards),
            );
            let sources: &[&'static str] = match kind {
                Kind::ServeHot => &HOT_SQL,
                Kind::ServeGenomics => &[COVERAGE_SQL, MATE_DISTANCE_SQL],
                _ => &[],
            };
            let mut shapes = Vec::new();
            for sql in sources {
                let plan = script_to_plan(sql, compiler.registry()).map_err(|e| e.to_string())?;
                shapes.push(Shape {
                    sql,
                    plan,
                    expected: None,
                    warm: None,
                });
            }
            if kind == Kind::ServeGenomics {
                for (name, sql) in GENOMICS_SCRIPTS {
                    server
                        .register_script(name, sql)
                        .map_err(|e| e.to_string())?;
                }
            }
            Ok::<_, String>((compiler, server, shapes))
        })?;

        let mut w = Serve {
            kind,
            catalog,
            compiler,
            server,
            shapes,
            literals,
            adhoc_names: Vec::new(),
            warmup_done: plan.warmup,
        };

        // Warm-up: the first request of each plan pays its compile here.
        clock.time(Phase::FirstRequest, || w.warm_op(0))?;
        let mut next = 1;
        while next < plan.warmup {
            let end = (next + plan.block).min(plan.warmup);
            clock.time(Phase::Warmup, || (next..end).try_for_each(|i| w.warm_op(i)))?;
            clock.checkpoint();
            next = end;
        }
        clock.time(Phase::Snapshot, || {
            std::hint::black_box(w.server.metrics_snapshot())
        });
        Ok(w)
    }

    fn shape_of(&self, idx: usize) -> usize {
        match self.kind {
            Kind::ServeHot => idx % self.shapes.len(),
            _ => GENOMICS_ROUND[idx % GENOMICS_ROUND.len()],
        }
    }

    fn literals(&self) -> &Literals {
        self.literals
            .as_ref()
            .expect("serve_adhoc carries literals")
    }

    /// SQL text of measured operation `idx`.
    fn sql_of(&self, idx: usize) -> String {
        match self.kind {
            Kind::ServeAdhoc => adhoc_sql(self.literals().planned(idx)),
            _ => self.shapes[self.shape_of(idx)].sql.to_owned(),
        }
    }

    fn request(&self, idx: usize, plan: Option<LogicalPlan>) -> Request {
        match (self.kind, plan) {
            (Kind::ServeGenomics, _) => {
                Request::script(TENANT, GENOMICS_SCRIPTS[self.shape_of(idx)].0)
            }
            (_, Some(plan)) => Request::new(TENANT, plan),
            (_, None) => Request::new(TENANT, self.shapes[self.shape_of(idx)].plan.clone()),
        }
    }

    fn adhoc_plan(&self, literal: u32) -> Result<LogicalPlan, String> {
        script_to_plan(&adhoc_sql(literal), self.compiler.registry()).map_err(|e| e.to_string())
    }

    /// One submit → wait round trip, timed on the caller's clock.
    fn round_trip(&self, req: Request) -> OpOutcome {
        let (result, latency_ns, alloc_bytes) = timed(|| {
            self.server
                .submit(req, &self.catalog)
                .and_then(|ticket| ticket.wait())
        });
        match result {
            Ok((table, stats)) => OpOutcome {
                latency_ns,
                alloc_bytes,
                stats,
                verdict: Verdict::Table(table),
            },
            Err(e) => {
                eprintln!("genesis_e2e: operation failed: {e}");
                OpOutcome {
                    latency_ns,
                    alloc_bytes,
                    stats: AccelStats::default(),
                    verdict: Verdict::Known(false),
                }
            }
        }
    }

    fn warm_op(&mut self, idx: usize) -> Result<(), String> {
        let req = if self.kind == Kind::ServeAdhoc {
            Request::new(TENANT, self.adhoc_plan(self.literals().warmup(idx))?)
        } else {
            self.request(idx, None)
        };
        let Verdict::Table(table) = self.round_trip(req).verdict else {
            return Err(format!("warm-up operation {idx} failed"));
        };
        if self.kind == Kind::ServeAdhoc {
            if self.adhoc_names.is_empty() {
                self.adhoc_names = table
                    .schema()
                    .fields()
                    .iter()
                    .map(|f| f.name.clone())
                    .collect();
            }
            let want = self.adhoc_expected(self.literals().warmup(idx))?;
            if digest(&want) != digest(&table) {
                return Err(format!(
                    "warm-up operation {idx} differs from its closed form"
                ));
            }
        } else {
            let shape = self.shape_of(idx);
            self.shapes[shape].warm = Some(digest(&table));
        }
        Ok(())
    }

    fn oracle(&self, plan: &LogicalPlan) -> Result<Table, String> {
        execute_plan(plan, &self.catalog, &Env::default()).map_err(|e| e.to_string())
    }

    /// Expected single-cell result of a `serve_adhoc` literal.
    fn adhoc_expected(&self, literal: u32) -> Result<Table, String> {
        let schema = Schema::new(
            self.adhoc_names
                .iter()
                .map(|n| Field::new(n, DataType::U64))
                .collect(),
        );
        Table::from_columns(schema, vec![Column::U64(vec![adhoc_sum(literal)])])
            .map_err(|e| e.to_string())
    }
}

impl Workload for Serve {
    fn run_op(&mut self, idx: usize) -> OpOutcome {
        // The client's own work (SQL text → plan, or cloning a held plan)
        // sits outside the latency timer, as `submit` is where it hands over.
        let plan = if self.kind == Kind::ServeAdhoc {
            match self.adhoc_plan(self.literals().planned(idx)) {
                Ok(plan) => Some(plan),
                Err(e) => {
                    eprintln!("genesis_e2e: operation {idx} did not plan: {e}");
                    return failed_outcome();
                }
            }
        } else {
            None
        };
        self.round_trip(self.request(idx, plan))
    }

    fn trace_op(&mut self, idx: usize, rec: &mut Recorder) -> OpOutcome {
        let sql = self.sql_of(idx);
        rec.begin_op(idx as u32);
        let parsed = rec.span("sql.parse", || Script::parse(&sql).is_ok());
        let plan = rec.span("sql.plan", || {
            script_to_plan(&sql, self.compiler.registry())
        });
        let replay = plan.map_err(|e| e.to_string()).and_then(|plan| {
            rec.span("serve.fingerprint", || {
                std::hint::black_box(fingerprint(&plan, &self.catalog))
            });
            let compiled = rec
                .span("compile.compile", || {
                    self.compiler.compile(&plan, &self.catalog)
                })
                .map_err(|e| e.to_string())?;
            rec.note_replication(compiled.replication().factor);
            let (direct, _) = rec
                .span("exec.execute", || compiled.execute(&self.catalog))
                .map_err(|e| e.to_string())?;
            let software = rec.span("sql.exec", || self.oracle(&plan))?;
            Ok((plan, digest(&direct) == digest(&software)))
        });
        let outcome = match replay {
            Ok((plan, layers_agree)) => {
                let req = self.request(idx, Some(plan));
                // Dispatch is paused across `submit`: the woken scheduler
                // thread otherwise pre-empts the caller at random, and the
                // submit/wait split (not their sum) flips between two
                // modes from one operation to the next. `resume` belongs
                // to the wait: on one CPU the job runs as soon as it is
                // released, before the caller reaches `wait`.
                let (result, latency_ns, alloc_bytes) = timed(|| {
                    self.server.pause();
                    let ticket =
                        rec.span("serve.submit", || self.server.submit(req, &self.catalog));
                    rec.span("serve.wait", || {
                        self.server.resume();
                        ticket.and_then(|t| t.wait())
                    })
                });
                match result {
                    Ok((table, stats)) => OpOutcome {
                        latency_ns,
                        alloc_bytes,
                        stats,
                        verdict: Verdict::Known(parsed && layers_agree && self.check(idx, &table)),
                    },
                    Err(e) => {
                        eprintln!("genesis_e2e: traced operation {idx} failed: {e}");
                        failed_outcome()
                    }
                }
            }
            Err(e) => {
                eprintln!("genesis_e2e: traced operation {idx} failed in replay: {e}");
                failed_outcome()
            }
        };
        rec.end_op();
        outcome
    }

    fn check(&self, idx: usize, table: &Table) -> bool {
        if self.kind == Kind::ServeAdhoc {
            return self
                .adhoc_expected(self.literals().planned(idx))
                .is_ok_and(|want| digest(&want) == digest(table));
        }
        self.shapes[self.shape_of(idx)].expected == Some(digest(table))
    }

    fn verify(&mut self, after_ops: usize) -> (usize, usize) {
        let mut checks = 0;
        let mut failed = 0;
        let mut judge = |ok: bool| {
            checks += 1;
            failed += usize::from(!ok);
        };
        if self.kind == Kind::ServeAdhoc {
            // The closed form the per-op check relies on, against the
            // software engine: the warm-up literals once, then one
            // measured literal in ADHOC_ORACLE_STRIDE.
            let lits = self.literals();
            let sample: Vec<u32> = if after_ops == 0 {
                (0..self.warmup_done)
                    .step_by(ADHOC_ORACLE_STRIDE)
                    .map(|i| lits.warmup(i))
                    .collect()
            } else {
                (0..after_ops)
                    .step_by(ADHOC_ORACLE_STRIDE)
                    .map(|i| lits.planned(i))
                    .collect()
            };
            for literal in sample {
                let agree = self
                    .adhoc_plan(literal)
                    .and_then(|plan| self.oracle(&plan))
                    .and_then(|sw| Ok(digest(&sw) == digest(&self.adhoc_expected(literal)?)));
                judge(agree.unwrap_or(false));
            }
        } else if after_ops == 0 {
            // Every distinct plan: software result becomes the twin, and
            // the warm-up run must already have produced it.
            for i in 0..self.shapes.len() {
                let want = self.oracle(&self.shapes[i].plan).map(|t| digest(&t)).ok();
                judge(want.is_some() && self.shapes[i].warm == want);
                self.shapes[i].expected = want;
            }
        }
        (checks, failed)
    }

    fn serve_counters(&self) -> ServeCounters {
        let cache = self.server.cache_stats();
        let snap = self.server.metrics_snapshot();
        ServeCounters {
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            compile_ns: snap
                .histograms
                .get("server.compile_ns")
                .map_or(0, |h| h.sum),
            dispatches: self.server.schedule_log().len() as u64,
            queue_depth_max: snap
                .histograms
                .get("server.queue_depth")
                .map_or(0, |h| h.max),
        }
    }

    fn compiles_every_op(&self) -> bool {
        self.kind == Kind::ServeAdhoc
    }
}

fn failed_outcome() -> OpOutcome {
    OpOutcome {
        latency_ns: 0,
        alloc_bytes: 0,
        stats: AccelStats::default(),
        verdict: Verdict::Known(false),
    }
}

// --------------------------------------------------------------- stages

const STAGE_READS: usize = 2_500;

/// The paper's three accelerators back to back on one read set, through
/// the stage-level entry points only.
struct Stages {
    data: Dataset,
    devices: [DeviceConfig; 3],
    /// Software baselines, filled by `verify(0)`.
    want: Option<StageOutputs>,
    /// Outputs of the warm-up operation, checked against the baselines.
    warm: Option<StageOutputs>,
}

#[derive(PartialEq)]
struct StageOutputs {
    report: MarkDupReport,
    reads: Vec<ReadRecord>,
    table: CovariateTable,
}

/// Per-stage modeled cost of one operation.
struct StageRun {
    outputs: StageOutputs,
    stats: [AccelStats; 3],
    /// DMA + accelerator time the device model predicts, per stage.
    modeled: [Duration; 3],
    /// Host software time the stage measured inside itself.
    host: [Duration; 3],
}

impl Stages {
    fn set_up(seed: u64, plan: &RunPlan, clock: &mut PhaseClock) -> Result<Stages, String> {
        let data = clock.time(Phase::Datagen, || {
            // One generated read set for every seed; the seed decides the
            // order the reads arrive in (an aligner's output order is
            // arbitrary), so the work is the same and cycle counts compare
            // across seeds. `truth` no longer lines up and is not used.
            let mut data = Dataset::generate(&DatagenConfig {
                num_reads: STAGE_READS / plan.data_div,
                chrom_len: 100_000,
                num_chromosomes: 2,
                ..DatagenConfig::tiny()
            });
            shuffle(&mut data.reads, &mut { seed });
            data
        });
        clock.checkpoint();
        // The paper's replication: 16× / 16× / 8× (Figure 8).
        let base = DeviceConfig::default()
            .with_host_threads(1)
            .with_trace(TraceConfig::off());
        let devices = [
            base.clone().with_pipelines(16),
            base.clone().with_pipelines(16).with_psize(125_000),
            base.with_pipelines(8).with_psize(125_000),
        ];
        let mut w = Stages {
            data,
            devices,
            want: None,
            warm: None,
        };
        for i in 0..plan.warmup.max(1) {
            let phase = if i == 0 {
                Phase::FirstRequest
            } else {
                Phase::Warmup
            };
            let run = clock
                .time(phase, || w.run_stages(&mut Recorder::off()))
                .map_err(|e| format!("warm-up operation failed: {e}"))?;
            clock.checkpoint();
            w.warm = Some(run.outputs);
        }
        Ok(w)
    }

    fn run_stages(&self, rec: &mut Recorder) -> Result<StageRun, String> {
        let mut reads = self.data.reads.clone();
        let genome = &self.data.genome;
        let cfg = &self.data.config;
        let [dev_md, dev_meta, dev_bq] = &self.devices;
        let md = rec
            .span("accel.markdup", || {
                accelerated_mark_duplicates(&mut reads, dev_md)
            })
            .map_err(|e| e.to_string())?;
        let meta = rec
            .span("accel.metadata", || {
                accelerated_metadata_update(&mut reads, genome, dev_meta)
            })
            .map_err(|e| e.to_string())?;
        let bq = rec
            .span("accel.bqsr", || {
                accelerated_bqsr_table(&reads, genome, cfg.read_groups, cfg.read_len, dev_bq)
            })
            .map_err(|e| e.to_string())?;
        Ok(StageRun {
            stats: [md.stats, meta.stats, bq.stats],
            modeled: [
                md.breakdown.dma + md.breakdown.accel,
                meta.breakdown.dma + meta.breakdown.accel,
                bq.breakdown.dma + bq.breakdown.accel,
            ],
            host: [md.breakdown.host, meta.breakdown.host, bq.breakdown.host],
            outputs: StageOutputs {
                report: md.report,
                reads,
                table: bq.table,
            },
        })
    }

    fn baselines(&self, rec: &mut Recorder) -> Result<StageOutputs, String> {
        let mut reads = self.data.reads.clone();
        let genome = &self.data.genome;
        let cfg = &self.data.config;
        let report = rec.span("gatk.markdup", || mark_duplicates(&mut reads));
        rec.span("gatk.metadata", || set_nm_md_uq_tags(&mut reads, genome))
            .map_err(|e| e.to_string())?;
        let table = rec.span("gatk.bqsr", || {
            build_covariate_table(&reads, genome, cfg.read_groups, cfg.read_len)
        });
        Ok(StageOutputs {
            report,
            reads,
            table,
        })
    }

    fn outcome(
        &self,
        run: Result<StageRun, String>,
        latency_ns: u64,
        alloc_bytes: u64,
    ) -> OpOutcome {
        match run {
            Ok(run) => {
                let mut stats = AccelStats::default();
                run.stats.iter().for_each(|s| stats.absorb(*s));
                let ok = self.want.as_ref() == Some(&run.outputs);
                OpOutcome {
                    latency_ns,
                    alloc_bytes,
                    stats,
                    verdict: Verdict::Known(ok),
                }
            }
            Err(e) => {
                eprintln!("genesis_e2e: stage operation failed: {e}");
                failed_outcome()
            }
        }
    }
}

impl Workload for Stages {
    fn run_op(&mut self, _idx: usize) -> OpOutcome {
        let (run, latency_ns, alloc_bytes) = timed(|| self.run_stages(&mut Recorder::off()));
        self.outcome(run, latency_ns, alloc_bytes)
    }

    fn trace_op(&mut self, idx: usize, rec: &mut Recorder) -> OpOutcome {
        rec.begin_op(idx as u32);
        let (run, latency_ns, alloc_bytes) = timed(|| self.run_stages(rec));
        if let Ok(run) = &run {
            for (i, stage) in ["markdup", "metadata", "bqsr"].into_iter().enumerate() {
                rec.note_stage(stage, run.stats[i].cycles, run.modeled[i], run.host[i]);
            }
        }
        let baselines_agree = self
            .baselines(rec)
            .is_ok_and(|b| Some(&b) == self.want.as_ref());
        rec.end_op();
        let mut outcome = self.outcome(run, latency_ns, alloc_bytes);
        if !baselines_agree {
            outcome.verdict = Verdict::Known(false);
        }
        outcome
    }

    fn check(&self, _idx: usize, _table: &Table) -> bool {
        false // stage outputs are judged inside the operation
    }

    fn verify(&mut self, after_ops: usize) -> (usize, usize) {
        if after_ops > 0 {
            return (0, 0);
        }
        match self.baselines(&mut Recorder::off()) {
            Ok(want) => {
                let ok = self.warm.as_ref() == Some(&want);
                self.want = Some(want);
                (1, usize::from(!ok))
            }
            Err(e) => {
                eprintln!("genesis_e2e: software baseline failed: {e}");
                (1, 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adhoc_literals_are_a_seeded_permutation_of_one_set() {
        let a = Literals::new(500, ROWS, &mut 1);
        let b = Literals::new(500, ROWS, &mut 2);
        assert_ne!(a.planned, b.planned);
        let sorted = |l: &Literals| {
            let mut v = l.planned.clone();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&a), sorted(&b));
        // Planned and warm-up literals never collide.
        let mut all: Vec<u32> = (0..500)
            .map(|i| a.planned(i))
            .chain((0..300).map(|i| a.warmup(i)))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 800);
        assert!(all.iter().all(|&l| l > 0 && l < a.x_max));
    }

    #[test]
    fn adhoc_closed_form_matches_a_direct_sum() {
        for literal in [1, 63, 64, 65, 1000, 4096, 524_287] {
            let direct: u64 = (0..ROWS as u64)
                .map(|j| j * 64)
                .filter(|&x| x < u64::from(literal))
                .sum();
            assert_eq!(adhoc_sum(literal), direct, "literal {literal}");
        }
    }

    #[test]
    fn run_plan_scales_whole_blocks() {
        let hot = spec("serve_hot").unwrap();
        let full = RunPlan::new(hot, REF_SECONDS, false);
        assert_eq!(
            (full.ops, full.trace_ops, full.setups),
            (14_400, 1_440, SETUPS)
        );
        let tiny = RunPlan::new(hot, REF_SECONDS / 200.0, true);
        assert_eq!((tiny.ops, tiny.trace_ops), (60, 60));
        let one = RunPlan::new(spec("stages").unwrap(), REF_SECONDS / 200.0, true);
        assert_eq!((one.ops, one.trace_ops), (1, 1));
    }
}
