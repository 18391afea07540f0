//! Shared test support: plan and catalog builders, the one table
//! comparison, seeded fault schedules, [`check`] — the harness every
//! compiled-vs-SQL differential runs through — and the software oracle for
//! the paper's Figure 4 query.
//!
//! A differential is a query, a catalog and an [`Axes`] value. [`check`]
//! runs the SQL engine once, then the compiled road at every combination
//! of the axes the suite drew, and holds each table to the engine's. A new
//! property is a generator plus an `Axes` value in an existing suite.

// Each test crate uses its own part of this module.
#![allow(dead_code)]

use genesis::core::compile::{script_to_plan, Compiler};
use genesis::core::device::{DeviceConfig, TierConfig};
use genesis::core::fault::FaultConfig;
use genesis::core::library::ModuleRegistry;
use genesis::core::perf::AccelStats;
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::core::CoreError;
use genesis::hw::EngineMode;
use genesis::sql::ast::{AggFn, BinOp, ColRef, Expr, JoinKind, SelectItem};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan, Script};
use genesis::types::{
    Cigar, CigarOp, Column, Field, ReadRecord, ReferenceGenome, Schema, Table,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::time::Duration;

/// The six comparators, in the order generators index them.
pub const CMP_OPS: [BinOp; 6] = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];

/// Both simulation engines.
pub const ENGINES: [EngineMode; 2] = [EngineMode::Fast, EngineMode::Reference];

// ---------------------------------------------------------------------------
// Plans.
// ---------------------------------------------------------------------------

pub fn scan(table: &str) -> LogicalPlan {
    LogicalPlan::Scan { table: table.to_owned(), partition: None }
}

pub fn col(name: &str) -> Expr {
    Expr::Col(ColRef::bare(name))
}

pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
}

pub fn filter(input: LogicalPlan, pred: Expr) -> LogicalPlan {
    LogicalPlan::Filter { input: Box::new(input), pred }
}

/// `input`, under `column op literal` when a comparison is drawn.
pub fn filtered(input: LogicalPlan, column: &str, cmp: Option<(BinOp, u64)>) -> LogicalPlan {
    match cmp {
        None => input,
        Some((op, lit)) => filter(input, bin(op, col(column), Expr::Number(lit))),
    }
}

/// `func(arg)`, or `func(*)` without an argument, unaliased.
pub fn agg(func: AggFn, arg: Option<&str>) -> SelectItem {
    SelectItem::Agg { func, arg: arg.map(col), alias: None }
}

/// `COUNT(*), SUM(column), MIN(column), MAX(column)`.
pub fn scalar_aggs(column: &str) -> Vec<SelectItem> {
    let aggs = [AggFn::Count, AggFn::Sum, AggFn::Min, AggFn::Max];
    aggs.map(|f| agg(f, (f != AggFn::Count).then_some(column))).to_vec()
}

/// `column` passed through, unaliased.
pub fn item(column: &str) -> SelectItem {
    SelectItem::Expr { expr: col(column), alias: None }
}

pub fn project(input: LogicalPlan, items: Vec<SelectItem>) -> LogicalPlan {
    LogicalPlan::Project { input: Box::new(input), items }
}

/// A scalar aggregate: `items` over `input`, no GROUP BY.
pub fn aggregate(input: LogicalPlan, items: Vec<SelectItem>) -> LogicalPlan {
    LogicalPlan::Aggregate { input: Box::new(input), items, group_by: vec![] }
}

/// `SELECT key, COUNT(*), SUM(s)… FROM input GROUP BY key ORDER BY key`.
pub fn grouped(input: LogicalPlan, key: &str, sums: &[&str]) -> LogicalPlan {
    let mut items = vec![item(key), agg(AggFn::Count, None)];
    items.extend(sums.iter().map(|s| agg(AggFn::Sum, Some(s))));
    let group_by = vec![ColRef::bare(key)];
    let agg = LogicalPlan::Aggregate { input: Box::new(input), items, group_by };
    LogicalPlan::Sort { input: Box::new(agg), keys: vec![(ColRef::bare(key), false)] }
}

/// `left ⋈ right` on `keys`; a key written `T.K` is qualified by its
/// table.
pub fn join(
    kind: JoinKind,
    left: LogicalPlan,
    right: LogicalPlan,
    keys: (&str, &str),
) -> LogicalPlan {
    let key = |k: &str| match k.split_once('.') {
        Some((table, column)) => ColRef::qualified(table, column),
        None => ColRef::bare(k),
    };
    LogicalPlan::Join {
        kind,
        left: Box::new(left),
        right: Box::new(right),
        left_key: key(keys.0),
        right_key: key(keys.1),
    }
}

/// `table`'s `array` exploded into one row per item, positions from
/// `init_pos`.
pub fn pos_explode(table: &str, array: &str, init_pos: Expr) -> LogicalPlan {
    LogicalPlan::PosExplode { input: Box::new(scan(table)), array: ColRef::bare(array), init_pos }
}

/// `table`'s reads (`POS`, `CIGAR`, `SEQ` and, with `qual`, `QUAL`)
/// exploded into one row per aligned base.
pub fn read_explode(table: &str, qual: bool) -> LogicalPlan {
    LogicalPlan::ReadExplode {
        input: Box::new(scan(table)),
        pos: col("POS"),
        cigar: ColRef::bare("CIGAR"),
        seq: ColRef::bare("SEQ"),
        qual: qual.then(|| ColRef::bare("QUAL")),
    }
}

// ---------------------------------------------------------------------------
// Tables and catalogs.
// ---------------------------------------------------------------------------

pub fn table_of(cols: Vec<(&str, Column)>) -> Table {
    let schema = Schema::new(cols.iter().map(|(n, c)| Field::new(n, c.dtype())).collect());
    Table::from_columns(schema, cols.into_iter().map(|(_, c)| c).collect()).unwrap()
}

/// Named `U32` columns.
pub type U32Columns<'a> = Vec<(&'a str, Vec<u32>)>;

pub fn u32_table(cols: U32Columns) -> Table {
    table_of(cols.into_iter().map(|(n, v)| (n, Column::U32(v))).collect())
}

pub fn catalog_of(tables: Vec<(&str, Table)>) -> Catalog {
    let mut cat = Catalog::new();
    for (name, table) in tables {
        cat.register(name, table);
    }
    cat
}

/// Strictly ascending keys from `start`, each `gap + 1` past the last.
pub fn ascending(start: u32, gaps: &[u32]) -> Vec<u32> {
    gaps.iter()
        .scan(start, |k, &gap| {
            let at = *k;
            *k += gap + 1;
            Some(at)
        })
        .collect()
}

/// `REF(POS, SEQ)` of chained rows `(items, gap)` from `start`: each row's
/// positions start `gap` past the last row's end, so its `PosExplode`'s
/// positions ascend across rows.
pub fn ref_table(start: u32, rows: &[(usize, u32)]) -> Table {
    let (mut pos, mut seq) = (Vec::new(), Vec::new());
    let mut next = start;
    for (i, &(items, gap)) in rows.iter().enumerate() {
        pos.push(next);
        seq.push((0..items).map(|j| ((i + j) % 4) as u8).collect::<Vec<u8>>());
        next += items as u32 + gap;
    }
    table_of(vec![("POS", Column::U32(pos)), ("SEQ", Column::ListU8(seq))])
}

/// One read, `(delta, (lead, tail), middle)`: it starts `delta` past the
/// read before it, and its CIGAR soft-clips `lead` and `tail` bases around
/// a `1M … 1M` that holds the `(op, len)` runs of `middle` over `M I D N`.
pub type ReadSpec = (u32, (u32, u32), Vec<(usize, u32)>);

/// Reads `0..max_delta` apart with up to `max_runs - 1` middle runs over
/// the first `ops` of `M I D N`.
pub fn read_spec(max_delta: u32, ops: usize, max_runs: usize) -> impl Strategy<Value = ReadSpec> {
    let runs = proptest::collection::vec((0usize..ops, 1u32..4), 0..max_runs);
    (0u32..max_delta, (0u32..3, 0u32..3), runs)
}

/// `READS(POS, CIGAR, SEQ[, QUAL])` from `specs`, the first read at
/// `lo` past its delta, positions ascending as in a coordinate-sorted BAM.
pub fn reads_table(lo: u32, specs: &[ReadSpec], qual: bool) -> Table {
    let (mut pos, mut cigars) = (Vec::new(), Vec::new());
    let (mut seqs, mut quals) = (Vec::new(), Vec::new());
    let mut at = lo;
    for (i, (delta, (lead, tail), mid)) in specs.iter().enumerate() {
        at += delta;
        let mut cigar = if *lead > 0 { format!("{lead}S1M") } else { "1M".to_owned() };
        for &(op, len) in mid {
            cigar.push_str(&format!("{len}{}", ['M', 'I', 'D', 'N'][op]));
        }
        cigar.push_str("1M");
        if *tail > 0 {
            cigar.push_str(&format!("{tail}S"));
        }
        let query = lead + tail + 2 + mid.iter().filter(|m| m.0 < 2).map(|m| m.1).sum::<u32>();
        pos.push(at);
        cigars.push(cigar.parse::<Cigar>().unwrap().pack().unwrap());
        seqs.push((0..query).map(|j| ((i as u32 + j) % 4) as u8).collect::<Vec<u8>>());
        quals.push((0..query).map(|j| (20 + (i as u32 * 3 + j) % 20) as u8).collect::<Vec<u8>>());
    }
    let mut cols = vec![
        ("POS", Column::U32(pos)),
        ("CIGAR", Column::ListU16(cigars)),
        ("SEQ", Column::ListU8(seqs)),
    ];
    if qual {
        cols.push(("QUAL", Column::ListU8(quals)));
    }
    table_of(cols)
}

/// The indices a membership mask selects, strictly ascending.
pub fn masked(mask: &[usize]) -> Vec<u32> {
    mask.iter().enumerate().filter(|(_, &m)| m == 1).map(|(i, _)| i as u32).collect()
}

/// [`masked`], or `[0]` when the mask selects nothing: a join's spine
/// scan must not be empty.
pub fn spine_keys(mask: &[usize]) -> Vec<u32> {
    Some(masked(mask)).filter(|k| !k.is_empty()).unwrap_or(vec![0])
}

/// `L ⋈ R` on `K`, inner or left, and the `U32` columns of `L(K, A)` and
/// `R(K, B)`: `L` holds its mask's [`spine_keys`], `R` its mask's keys.
pub fn masked_join(
    left_mask: &[usize],
    right_mask: &[usize],
    left_join: bool,
    lmul: u32,
    rmul: u32,
) -> (LogicalPlan, [U32Columns<'static>; 2]) {
    let lk = spine_keys(left_mask);
    let rk = masked(right_mask);
    let lv = lk.iter().map(|k| k * lmul + 1).collect();
    let rv = rk.iter().map(|k| k * rmul + 2).collect();
    let kind = if left_join { JoinKind::Left } else { JoinKind::Inner };
    let plan = join(kind, scan("L"), scan("R"), ("L.K", "R.K"));
    (plan, [vec![("K", lk), ("A", lv)], vec![("K", rk), ("B", rv)]])
}

// ---------------------------------------------------------------------------
// Device settings.
// ---------------------------------------------------------------------------

/// Pages of 64 bytes, no on-chip quota and short links: every scratchpad
/// pages on its first touch of each page.
pub fn tiny_tiers() -> TierConfig {
    TierConfig {
        spm_bytes: 0,
        page_bytes: 64,
        pcie_latency: Duration::from_nanos(40),
        dram_latency: Duration::from_nanos(16),
        ..TierConfig::default()
    }
}

/// A seeded fault schedule (rates in parts per million), two retries and
/// instant backoff, so no test sleeps.
pub fn seeded_faults(seed: u64, dma_ppm: u32, device_ppm: u32, mem_ppm: u32) -> FaultConfig {
    FaultConfig {
        seed,
        dma_fail_ppm: dma_ppm,
        device_fail_ppm: device_ppm,
        mem_spike_ppm: mem_ppm,
        mem_spike_cycles: 200,
        max_retries: 2,
        backoff_base: Duration::ZERO,
        backoff_cap: Duration::ZERO,
        fallback: true,
    }
}

/// Any seeded schedule: up to 40 % DMA and 20 % device faults, memory
/// spikes, fallback on or off.
pub fn arb_faults() -> impl Strategy<Value = FaultConfig> {
    (0u64..1_000_000, 0u32..400_000, 0u32..200_000, 0u32..5_000, 0u32..2).prop_map(
        |(seed, dma, device, mem, fallback)| FaultConfig {
            fallback: fallback == 1,
            ..seeded_faults(seed, dma, device, mem)
        },
    )
}

/// Whether `e` is how a faulted run may end: a structured host, DMA,
/// device or simulation error.
pub fn is_fault_error(e: &CoreError) -> bool {
    matches!(e, CoreError::Host(_) | CoreError::Dma(_) | CoreError::Device(_) | CoreError::Sim(_))
}

// ---------------------------------------------------------------------------
// The comparison and the harness.
// ---------------------------------------------------------------------------

fn fail(what: &str, e: impl std::fmt::Display) -> TestCaseError {
    TestCaseError::fail(format!("{what}: {e}"))
}

/// Whether the compiled table `hw` is the SQL engine's `sw` under
/// `Table`'s own `==`: the same column names, the same dtype for each
/// column, then the same rows. The error names the first column or row
/// that differs.
pub fn same_table(hw: &Table, sw: &Table, what: &str) -> Result<(), TestCaseError> {
    let (hf, sf) = (hw.schema().fields(), sw.schema().fields());
    let names = |f: &[Field]| f.iter().map(|f| f.name.clone()).collect::<Vec<_>>();
    if names(hf) != names(sf) {
        return Err(fail(what, format!("columns {:?} vs {:?}", names(hf), names(sf))));
    }
    if let Some((h, s)) = hf.iter().zip(sf).find(|(h, s)| h.dtype != s.dtype) {
        return Err(fail(what, format!("column {} is {:?} vs {:?}", h.name, h.dtype, s.dtype)));
    }
    for r in 0..hw.num_rows().min(sw.num_rows()) {
        let (hr, sr) = (hw.row(r), sw.row(r));
        if let Some(c) = (0..hr.len()).find(|&c| hr[c] != sr[c]) {
            let (name, h, s) = (&hf[c].name, &hr[c], &sr[c]);
            let text = format!("row {r} column {name}: {h:?} vs {s:?} ({hr:?} vs {sr:?})");
            return Err(fail(what, text));
        }
    }
    if hw.num_rows() != sw.num_rows() {
        return Err(fail(what, format!("{} rows vs {}", hw.num_rows(), sw.num_rows())));
    }
    if hw != sw {
        return Err(fail(what, "the tables' columns differ"));
    }
    Ok(())
}

/// What a differential compares with the SQL engine: a plan, or a script
/// and the table its last `INSERT` fills.
#[derive(Clone, Copy)]
pub enum Query<'a> {
    Plan(&'a LogicalPlan),
    Script { sql: &'a str, out: &'a str },
}

impl<'a> From<&'a LogicalPlan> for Query<'a> {
    fn from(plan: &'a LogicalPlan) -> Query<'a> {
        Query::Plan(plan)
    }
}

/// How a compiled plan reaches the device.
#[derive(Debug, Clone, Copy)]
pub enum Road {
    /// `PipelinePlan::execute_replicated` at the axes' factor.
    Direct,
    /// A one-device `GenesisServer` cut into this many shards, the
    /// request at the axes' factor.
    Served(usize),
}

/// The settings one differential sweeps: every road, under every
/// pushdown and engine setting drawn, on a `DeviceConfig::small()` with
/// the drawn tiers and faults. Every run returns the SQL engine's table,
/// over no rows as over many; only under faults may one end in an error
/// instead, and then only in a fault's.
#[derive(Debug, Clone)]
pub struct Axes {
    /// Replicas per pipeline, on every road.
    pub factor: usize,
    pub roads: Vec<Road>,
    pub pushdown: Vec<bool>,
    pub engines: Vec<EngineMode>,
    pub tiers: Option<TierConfig>,
    /// Under faults a run may also end in [`is_fault_error`]'s errors;
    /// a run that returns must still return the SQL engine's table.
    pub faults: Option<FaultConfig>,
    /// On the direct road, run the compiled plan over [`reversed`] tables
    /// first, so the Systems its runs reset hold queues, scratchpads and
    /// device memory left dirty at other sizes, and hold the run over the
    /// case's own tables after it to the SQL engine's table.
    pub reuse: bool,
}

impl Axes {
    /// The direct road at `factor`, pushdown on, the fast engine, no
    /// tiers and no faults.
    pub fn at(factor: usize) -> Axes {
        Axes {
            factor,
            roads: vec![Road::Direct],
            pushdown: vec![true],
            engines: vec![EngineMode::Fast],
            tiers: None,
            faults: None,
            reuse: false,
        }
    }

    /// Adds the road that serves on `shards` shards.
    pub fn served(mut self, shards: usize) -> Axes {
        self.roads.push(Road::Served(shards));
        self
    }

    pub fn pushdown(mut self, settings: &[bool]) -> Axes {
        self.pushdown = settings.to_vec();
        self
    }

    pub fn engines(mut self, engines: &[EngineMode]) -> Axes {
        self.engines = engines.to_vec();
        self
    }

    pub fn faults(mut self, faults: Option<FaultConfig>) -> Axes {
        self.faults = faults;
        self
    }

    /// Reruns the direct road's plan after a run over other data.
    pub fn reused(mut self) -> Axes {
        self.reuse = true;
        self
    }

    /// Whether `e` ends a run this sweep accepts: a fault's error, under
    /// faults.
    fn excuses(&self, e: &CoreError) -> bool {
        self.faults.is_some() && is_fault_error(e)
    }
}

/// `t` with its rows in reverse order.
fn reversed(t: &Table) -> Table {
    let mut out = Table::new(t.schema().clone());
    for r in (0..t.num_rows()).rev() {
        out.push_row(t.row(r)).unwrap();
    }
    out
}

/// Runs `plan` on one road; on the direct road, after a run over `dirty`
/// when there is one, whatever that run returns.
fn run(
    plan: &LogicalPlan,
    catalog: &Catalog,
    dirty: Option<&Catalog>,
    cfg: &DeviceConfig,
    road: Road,
    factor: usize,
) -> Result<(Table, AccelStats), CoreError> {
    match road {
        Road::Direct => {
            let compiled = Compiler::new(cfg.clone()).compile(plan, catalog)?;
            if let Some(dirty) = dirty {
                let _ = compiled.execute_replicated(dirty, factor);
            }
            compiled.execute_replicated(catalog, factor)
        }
        Road::Served(shards) => {
            let pool = ServerConfig::default().with_devices(1, cfg.clone()).with_shards(shards);
            let request = Request::new("t", plan.clone()).with_replication(factor);
            GenesisServer::new(pool).submit(request, catalog)?.wait()
        }
    }
}

/// Runs the SQL engine once, then the compiled road at every combination
/// of `axes`, and fails unless each run returns the engine's table (or,
/// where `axes` allows, ends in an accepted error), and unless the
/// engine's schema is the plan's [`LogicalPlan::output_schema`]. Returns
/// each returned run's label and stats, engines outermost and roads
/// innermost.
pub fn check<'a>(
    query: impl Into<Query<'a>>,
    catalog: &Catalog,
    axes: &Axes,
) -> Result<Vec<(String, AccelStats)>, TestCaseError> {
    let (plan, sw) = match query.into() {
        Query::Plan(plan) => {
            let sw = execute_plan(plan, catalog, &Env::default());
            (plan.clone(), sw.map_err(|e| fail("software run", e))?)
        }
        Query::Script { sql, out } => {
            let plan = script_to_plan(sql, &ModuleRegistry::with_builtins());
            let mut cat = catalog.clone_tables();
            let script = Script::parse(sql).map_err(|e| fail("parse", e))?;
            script.run(&mut cat).map_err(|e| fail("software run", e))?;
            let sw = cat.table(out).ok_or_else(|| fail("software run", format!("no {out}")))?;
            (plan.map_err(|e| fail("compile", e))?, sw.clone())
        }
    };
    let schema = plan.output_schema(catalog).map_err(|e| fail("output schema", e))?;
    if sw.schema() != &schema {
        let text = format!("{:?} vs output_schema {:?}", sw.schema(), schema);
        return Err(fail("software schema", text));
    }
    let dirty = axes.reuse.then(|| {
        let mut dirty = catalog.clone_tables();
        for name in catalog.table_names() {
            dirty.register(name, reversed(catalog.table(name).unwrap()));
        }
        dirty
    });
    let mut runs = Vec::new();
    for &engine in &axes.engines {
        for &pushdown in &axes.pushdown {
            let mut cfg = DeviceConfig::small().with_engine(engine).with_pushdown(pushdown);
            if let Some(tiers) = axes.tiers {
                cfg = cfg.with_tiers(tiers);
            }
            if let Some(faults) = &axes.faults {
                cfg = cfg.with_faults(faults.clone());
            }
            for &road in &axes.roads {
                let what = format!(
                    "{engine:?}, pushdown {pushdown}, tiers {}, faults {:?}, reuse {}, {road:?} at {}x",
                    axes.tiers.is_some(),
                    axes.faults.as_ref().map(|f| f.seed),
                    axes.reuse,
                    axes.factor
                );
                match run(&plan, catalog, dirty.as_ref(), &cfg, road, axes.factor) {
                    Ok((hw, stats)) => {
                        same_table(&hw, &sw, &what)?;
                        runs.push((what, stats));
                    }
                    Err(e) if axes.excuses(&e) => {}
                    Err(e) => return Err(fail(&what, e)),
                }
            }
        }
    }
    Ok(runs)
}

// ---------------------------------------------------------------------------
// Oracles.
// ---------------------------------------------------------------------------

/// Per-read count of aligned bases equal to the reference base (0 for a
/// read past its chromosome's end): the software oracle for the paper's
/// Figure 4 query.
pub fn count_matching_bases_sw(reads: &[ReadRecord], genome: &ReferenceGenome) -> Vec<u32> {
    reads
        .iter()
        .map(|r| {
            let Some(chrom) = genome.chromosome(r.chr) else { return 0 };
            if r.end_pos() as usize > chrom.len() {
                return 0;
            }
            let (mut count, mut ref_pos, mut seq_i) = (0u32, r.pos as usize, 0usize);
            for e in r.cigar.iter() {
                let n = e.len as usize;
                match e.op {
                    CigarOp::Match | CigarOp::SeqMatch | CigarOp::SeqMismatch => {
                        count += (0..n)
                            .filter(|&i| r.seq[seq_i + i] == chrom.seq[ref_pos + i])
                            .count() as u32;
                        seq_i += n;
                        ref_pos += n;
                    }
                    CigarOp::Ins | CigarOp::SoftClip => seq_i += n,
                    CigarOp::Del | CigarOp::RefSkip => ref_pos += n,
                    CigarOp::HardClip => {}
                }
            }
            count
        })
        .collect()
}
