//! General plan→pipeline lowering (paper §III-D).
//!
//! "SQL queries can be easily parsed into a tree graph where each node
//! represents a table (leaf node) or a relational/computational operator" —
//! this module walks any supported [`LogicalPlan`] tree node by node,
//! mapping each node to hardware modules (Scan → Memory Readers + Zip,
//! Filter → Filter, Join → Joiner, Project → Zip/ALU diamonds,
//! Aggregate → Reducers or SPM Updater/Reader cascades) and each plan edge
//! to a hardware queue. The same builder runs twice: once at compile time
//! on a scratch [`System`] to validate the query and measure its
//! [`PipelineProfile`] (port demand + fabric usage, the cost-model input),
//! and once per replicated job at execution time.
//!
//! The lowering is *semantics-first*: every rule here was derived from the
//! reference software engine in `genesis-sql::exec`, and shapes whose
//! hardware behavior would diverge from the software engine (Bool/number
//! comparisons, unordered join keys, engine-defined row order, …) are
//! rejected with a structured [`CoreError::Unsupported`] naming the
//! offending node instead of silently computing something else.

use crate::accel::{run_batches, split_ranges};
use crate::builder::PipelineBuilder;
use crate::cost::PipelineProfile;
use crate::device::DeviceConfig;
use crate::error::CoreError;
use crate::perf::AccelStats;
use genesis_hw::memory::LINE_BYTES;
use genesis_hw::modules::alu::{AluOp, AluRhs, StreamAlu};
use genesis_hw::modules::fanout::Fanout;
use genesis_hw::modules::filter::{CmpOp, Filter, Operand, Predicate};
use genesis_hw::modules::joiner::{JoinKind as HwJoinKind, Joiner};
use genesis_hw::modules::mem_reader::RowSpec;
use genesis_hw::modules::mem_writer::MemWriter;
use genesis_hw::modules::reducer::{ReduceOp, Reducer};
use genesis_hw::modules::spm_reader::{SpmReadMode, SpmReader};
use genesis_hw::modules::spm_updater::{RmwOp, SpmUpdateMode, SpmUpdater};
use genesis_hw::modules::zip::{Zip, ZipInput};
use genesis_hw::resource::{pipeline_overhead, shell_overhead, ResourceUsage};
use genesis_hw::system::ModuleId;
use genesis_hw::word::MAX_FIELDS;
use genesis_hw::{QueueId, System};
use genesis_sql::ast::{AggFn, BinOp, ColRef, Expr, JoinKind, SelectItem};
use genesis_sql::exec::{execute_plan, Env};
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::{Column, DataType, Field, Schema, Table, Value};
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// 8-byte Memory Writer encoding of [`Value::Ins`] (all mask bits set).
const MARKER_INS: u64 = u64::MAX;
/// 8-byte Memory Writer encoding of [`Value::Del`] (mask minus one).
const MARKER_DEL: u64 = u64::MAX - 1;

/// Largest dense GROUP BY key domain lowered to an on-chip scratchpad
/// histogram (the paper's BQSR covariate tables are bounded the same way).
pub(crate) const MAX_GROUP_DOMAIN: u64 = 1 << 16;

/// The lifted group-domain cap when the device models tiered memory
/// (`GENESIS_TIERS`): histograms no longer need to fit on chip — pages
/// spill to device DRAM and host DRAM — so the bound guards only against
/// absurd allocations, not BRAM capacity.
pub(crate) const MAX_GROUP_DOMAIN_TIERED: u64 = 1 << 27;

/// The group-domain cap in force for `cfg`: lifted when tiered memory
/// backs the scratchpads.
pub(crate) fn group_domain_cap(cfg: &DeviceConfig) -> u64 {
    if cfg.tiers.is_some() { MAX_GROUP_DOMAIN_TIERED } else { MAX_GROUP_DOMAIN }
}

/// Table name the merged hardware output is registered under when the
/// host-side epilogue (`ORDER BY`/`LIMIT`) re-enters the software engine.
const HW_OUT: &str = "__genesis_hw_out";

/// How a raw 8-byte output element decodes back into a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decode {
    /// Plain unsigned integer.
    U64,
    /// 0/1 boolean (the software engine's `Bool` cells).
    Bool,
}

/// Static knowledge about one column of an in-flight hardware stream.
#[derive(Debug, Clone)]
struct ColInfo {
    /// Output schema name (follows the software engine's naming rules).
    name: String,
    decode: Decode,
    /// May carry `Del` padding markers (introduced by LEFT JOIN).
    nullable: bool,
    /// Values are strictly increasing (join-key precondition).
    ascending: bool,
    /// Upper bound on the values, when derivable from the scanned data
    /// (sets the GROUP BY scratchpad domain).
    max_value: Option<u64>,
    /// Lower bound on the values (`0` is the trivially valid unsigned
    /// bound). Together with `max_value` this proves computed keys cannot
    /// wrap: the engine's `wrapping_add`/`wrapping_sub` only match a dense
    /// scratchpad domain when no row under- or overflows.
    min_value: u64,
    /// Provenance of the values: `(prepared-scan index, column index)`
    /// when every value streamed unchanged from that scanned column.
    /// Filters, joins, and projections only pass row *subsets* through
    /// (join keys are strictly increasing and unique, so no row ever
    /// duplicates), which lets [`comp_bounds`] compute exact row-aligned
    /// bounds for same-scan arithmetic. `None` for computed values.
    origin: Option<(usize, usize)>,
}

/// One scanned column, copied out of the catalog once — every cell
/// widened to the `u64` a flit field carries — so the per-job build
/// closures only capture `Sync` data (the [`Catalog`] holds non-`Sync`
/// custom modules). Each replica's range narrows from here straight into
/// device memory ([`PipelineBuilder::upload_values`]).
#[derive(Debug, Clone)]
struct PreparedCol {
    name: String,
    elem_bytes: usize,
    decode: Decode,
    vals: Vec<u64>,
    /// For flattened list columns (explode inputs): per scan-row run
    /// lengths into `vals`. `None` for one-value-per-row columns.
    lens: Option<Vec<u32>>,
}

/// How an explode leaf re-expands its absorbed scan at build time.
#[derive(Debug, Clone)]
struct ExplodeSpec {
    /// A QUAL stream accompanies POS/CIGAR/SEQ into the `ReadToBases`
    /// block (and a third output column leaves it).
    has_qual: bool,
    /// Output-stream column metadata, derived over the full scan range
    /// by walking the CIGARs (conservative for any sub-range: nullability
    /// and max bounds only shrink on a slice, ascending only holds).
    out_cols: Vec<ColInfo>,
    /// Prefix sums of exploded output rows per scan row
    /// (`len == rows + 1`), so a spine slice's expansion is O(1).
    out_offsets: Vec<usize>,
    /// Plan node name for summaries (`ReadExplode` / `PosExplode`).
    node: &'static str,
}

/// One `Scan` leaf of the core plan, resolved against the catalog. An
/// explode node absorbs its input scan into one `PreparedScan` whose
/// list columns are flattened (`PreparedCol::lens`) and carries the
/// [`ExplodeSpec`] describing the hardware re-expansion.
#[derive(Debug, Clone)]
struct PreparedScan {
    table: String,
    rows: usize,
    cols: Vec<PreparedCol>,
    explode: Option<ExplodeSpec>,
    /// Rows the scan held *before* predicate pushdown dropped any
    /// (`== rows` when nothing was pushed); feeds the
    /// `scan.rows_scanned` counter and the cost model's selectivity.
    rows_scanned: usize,
    /// When pushdown dropped rows: each survivor's original row index,
    /// ascending (`len == rows`). Used to attribute scanned rows to
    /// shard ranges so scatter-gather stays balanced on survivors.
    kept: Option<Vec<usize>>,
}

impl PreparedScan {
    /// Original (pre-pushdown) rows attributed to the surviving-row range
    /// `r`: the survivors' source rows plus the dropped rows between
    /// them. Leading dropped rows go to the first range and trailing
    /// ones to the last, so any partition of `0..rows` into contiguous
    /// ranges attributes exactly `rows_scanned` rows in total.
    fn scanned_rows(&self, r: &Range<usize>) -> usize {
        let Some(kept) = &self.kept else { return r.len() };
        let lo = if r.start == 0 { 0 } else { kept[r.start] };
        let hi = if r.end == self.rows { self.rows_scanned } else { kept[r.end] };
        hi - lo
    }
}

/// Host-side epilogue steps replayed through the software engine on the
/// merged hardware output (bit-identical by construction).
#[derive(Debug, Clone)]
enum Epilogue {
    Sort { keys: Vec<(ColRef, bool)> },
    Limit { offset: Expr, count: Expr },
}

/// Scalar (ungrouped) aggregate flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScalarKind {
    Count,
    Sum,
    Min,
    Max,
}

/// Role of one output column of a grouped aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupRole {
    Key,
    Count,
    Sum,
}

/// Result-shape of a lowered pipeline (drives extraction and merging).
#[derive(Debug, Clone)]
enum SinkKind {
    /// Row stream: per-job row blocks concatenate in job order.
    Stream,
    /// One row of scalar aggregates: per-job partials combine.
    Scalar(Vec<ScalarKind>),
    /// Grouped aggregates: per-job histograms merge by ascending key.
    Grouped(Vec<GroupRole>),
}

/// Per-job sink handles (writer module + readback address per column).
#[derive(Debug)]
enum Sink {
    Stream { writers: Vec<(ModuleId, u64)> },
    Scalar { parts: Vec<(ScalarKind, ModuleId, u64)> },
    Grouped { writers: Vec<(ModuleId, u64)> },
}

/// The build result for one pipeline instance.
#[derive(Debug)]
struct Built {
    sink: Sink,
    cols: Vec<ColInfo>,
}

/// Raw per-job output, merged on the host after simulation.
#[derive(Debug)]
enum JobOut {
    /// Decoded output columns, one `Vec` per column.
    Cols(Vec<Vec<Value>>),
    Scalar(Vec<(ScalarKind, Option<u64>)>),
    /// Raw (undecoded) group columns, rows ascending by key.
    Grouped(Vec<Vec<u64>>),
}

/// A fully analyzed general lowering: the validated core plan, its
/// host-side epilogues, the output schema, and the cost-model profile.
#[derive(Debug, Clone)]
pub(crate) struct Lowering {
    core: LogicalPlan,
    epilogues: Vec<Epilogue>,
    /// Filter conjuncts absorbed into scan leaves (the host-side analog
    /// of GenStore's in-storage filtering): re-applied to the freshly
    /// bound scan data every time the lowering binds to a catalog.
    pushed: Vec<PushedFilter>,
    cols_names: Vec<String>,
    kind: SinkKind,
    /// Device memory one pipeline's sink writers allocated in the
    /// analysis build.
    sink_bytes: usize,
    /// Port/fabric demand of one pipeline (input to the replication
    /// chooser).
    pub(crate) profile: PipelineProfile,
    /// Human-readable node→module mapping lines.
    pub(crate) summary: Vec<String>,
}

/// One in-flight relational stream: a queue of row flits plus per-column
/// metadata.
#[derive(Debug)]
struct Stream {
    q: QueueId,
    cols: Vec<ColInfo>,
}

/// Build-time context threaded through the node-by-node lowering.
struct BuildCtx<'a> {
    prepared: &'a [PreparedScan],
    next_scan: usize,
    spine_range: Range<usize>,
    reads: Vec<usize>,
    writes: Vec<usize>,
    uniq: usize,
    summary: Vec<String>,
    /// Largest dense GROUP BY key domain this device admits
    /// ([`MAX_GROUP_DOMAIN`], lifted to [`MAX_GROUP_DOMAIN_TIERED`] when
    /// tiered memory backs the scratchpads).
    group_domain_cap: u64,
    /// Output rows per input row of the built pipeline (> 1 once an
    /// explode node expands the stream; the Figure 8 cost model throttles
    /// read-port demand by it, see [`PipelineProfile::expansion`]).
    expansion: f64,
    /// Upper bound on rows any stream in the pipeline can carry (sizes
    /// the stream-sink writer allocations; explodes raise it above the
    /// spine row count).
    rows_bound: usize,
    /// Device memory the sink writers allocated (recorded by the analysis
    /// build so a bind can reserve it up front).
    sink_bytes: usize,
}

impl<'a> BuildCtx<'a> {
    fn new(
        prepared: &'a [PreparedScan],
        spine_range: Range<usize>,
        group_domain_cap: u64,
    ) -> BuildCtx<'a> {
        let rows_bound = spine_range.len();
        BuildCtx {
            prepared,
            next_scan: 0,
            spine_range,
            reads: Vec::new(),
            writes: Vec::new(),
            uniq: 0,
            summary: Vec::new(),
            group_domain_cap,
            expansion: 1.0,
            rows_bound,
            sink_bytes: 0,
        }
    }

    fn lbl(&mut self, name: &str) -> String {
        self.uniq += 1;
        format!("{name}.{}", self.uniq)
    }

    fn note(&mut self, line: String) {
        self.summary.push(line);
    }
}

/// Resolves a column reference against stream columns with the software
/// engine's rules: exact display-name match first, then a unique bare-name
/// or `.suffix` match.
fn resolve(cols: &[ColInfo], col: &ColRef, node: &str) -> Result<usize, CoreError> {
    let want = col.display_name();
    if let Some(i) = cols.iter().position(|c| c.name == want) {
        return Ok(i);
    }
    let suffix = format!(".{}", col.column);
    let hits: Vec<usize> = cols
        .iter()
        .enumerate()
        .filter(|(_, c)| c.name == col.column || c.name.ends_with(&suffix))
        .map(|(i, _)| i)
        .collect();
    match hits.as_slice() {
        [i] => Ok(*i),
        [] => {
            // A user plan error (not a lowering gap): the column does not
            // exist in the input stream. Attach a did-you-mean when a
            // close name exists.
            let mut reason = format!("unknown column {want}");
            if let Some(s) = crate::env::suggest(&want, cols.iter().map(|c| c.name.as_str())) {
                reason.push_str(&format!(" (did you mean `{s}`?)"));
            }
            Err(CoreError::plan(node, reason))
        }
        many => {
            let names: Vec<&str> =
                many.iter().map(|&i| cols[i].name.as_str()).collect();
            Err(CoreError::plan(
                node,
                format!(
                    "ambiguous column {want}: matches {} (qualify with a table prefix)",
                    names.join(", ")
                ),
            ))
        }
    }
}

/// The software engine's join-output qualification rule.
fn qualify(prefix: Option<&str>, name: &str) -> String {
    match prefix {
        Some(p) if !name.contains('.') => format!("{p}.{name}"),
        _ => name.to_owned(),
    }
}

fn cmp_of(op: BinOp) -> Option<CmpOp> {
    match op {
        BinOp::Eq => Some(CmpOp::Eq),
        BinOp::Ne => Some(CmpOp::Ne),
        BinOp::Lt => Some(CmpOp::Lt),
        BinOp::Le => Some(CmpOp::Le),
        BinOp::Gt => Some(CmpOp::Gt),
        BinOp::Ge => Some(CmpOp::Ge),
        _ => None,
    }
}

/// Mirror of a comparison for swapped operands (`n op x` → `x op' n`).
fn mirror(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

/// Walks the core plan collecting every `Scan` leaf left-to-right and
/// binding its columns. Leaf order matches [`build_node`]'s traversal,
/// so the first prepared scan is the replication spine.
fn prepare_scans(
    plan: &LogicalPlan,
    catalog: &Catalog,
    out: &mut Vec<PreparedScan>,
) -> Result<(), CoreError> {
    match plan {
        LogicalPlan::Scan { table, partition } => {
            let t = lookup_table(table, partition.as_ref(), catalog)?;
            out.push(prepare_table(table, t)?);
            Ok(())
        }
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Filter { input, .. }
        | LogicalPlan::Aggregate { input, .. } => prepare_scans(input, catalog, out),
        LogicalPlan::Join { left, right, .. } => {
            prepare_scans(left, catalog, out)?;
            prepare_scans(right, catalog, out)
        }
        LogicalPlan::Sort { .. } | LogicalPlan::Limit { .. } => Err(CoreError::unsupported(
            plan_node_name(plan),
            "only supported as a final host-side step above the hardware pipeline",
        )),
        LogicalPlan::PosExplode { .. } | LogicalPlan::ReadExplode { .. } => {
            out.push(prepare_explode(plan, catalog)?);
            Ok(())
        }
    }
}

/// Resolves a `Scan` leaf's table (with optional partition selector)
/// against the catalog, with a did-you-mean for unknown names.
fn lookup_table<'c>(
    table: &str,
    partition: Option<&Expr>,
    catalog: &'c Catalog,
) -> Result<&'c Table, CoreError> {
    let found = match partition {
        None => catalog.table(table),
        Some(Expr::Number(pid)) => catalog.partition(table, *pid),
        Some(_) => {
            return Err(CoreError::unsupported(
                format!("Scan({table})"),
                "partition selector must be an integer literal",
            ))
        }
    };
    found.ok_or_else(|| {
        let mut reason = "unknown table".to_owned();
        if let Some(s) = crate::env::suggest(table, catalog.table_names()) {
            reason.push_str(&format!(" (did you mean `{s}`?)"));
        }
        CoreError::plan(format!("Scan({table})"), reason)
    })
}

fn plan_node_name(plan: &LogicalPlan) -> &'static str {
    match plan {
        LogicalPlan::Scan { .. } => "Scan",
        LogicalPlan::Project { .. } => "Project",
        LogicalPlan::Filter { .. } => "Filter",
        LogicalPlan::Join { .. } => "Join",
        LogicalPlan::Aggregate { .. } => "Aggregate",
        LogicalPlan::Sort { .. } => "Sort",
        LogicalPlan::Limit { .. } => "Limit",
        LogicalPlan::PosExplode { .. } => "PosExplode",
        LogicalPlan::ReadExplode { .. } => "ReadExplode",
    }
}

/// One typed pass over a fixed-width column: every cell widened to the
/// `u64` a flit field carries.
fn widen<T: Copy + Into<u64>>(cells: &[T]) -> Vec<u64> {
    cells.iter().map(|&x| x.into()).collect()
}

fn prepare_table(name: &str, t: &Table) -> Result<PreparedScan, CoreError> {
    let node = format!("Scan({name})");
    if t.schema().len() > MAX_FIELDS {
        return Err(CoreError::unsupported(
            node,
            format!("{} columns exceed the {MAX_FIELDS}-field flit width", t.schema().len()),
        ));
    }
    let mut cols = Vec::with_capacity(t.schema().len());
    for (ci, f) in t.schema().fields().iter().enumerate() {
        let (elem_bytes, decode, vals) = match t.column_at(ci) {
            Column::U8(v) => (1, Decode::U64, widen(v)),
            Column::U16(v) => (2, Decode::U64, widen(v)),
            Column::U32(v) => (4, Decode::U64, widen(v)),
            Column::U64(v) => (8, Decode::U64, v.clone()),
            Column::Bool(v) => (1, Decode::Bool, widen(v)),
            Column::Cell(cells) => uniform_cells(cells).ok_or_else(|| {
                CoreError::unsupported(
                    node.clone(),
                    format!(
                        "dynamically-typed column {} holds non-uniform or non-numeric cells",
                        f.name
                    ),
                )
            })?,
            Column::Str(_) | Column::ListU8(_) | Column::ListU16(_) | Column::ListBool(_) => {
                return Err(CoreError::unsupported(
                    node,
                    format!(
                        "column {} has type {:?}; only fixed-width numeric/boolean \
                         columns stream through Memory Readers",
                        f.name, f.dtype
                    ),
                ))
            }
        };
        cols.push(PreparedCol { name: f.name.clone(), elem_bytes, decode, vals, lens: None });
    }
    let rows = t.num_rows();
    Ok(PreparedScan {
        table: name.to_owned(),
        rows,
        cols,
        explode: None,
        rows_scanned: rows,
        kept: None,
    })
}

/// Mirror of the software engine's column resolution against a table
/// schema (exact display-name match, then unique bare/suffix match).
fn schema_col(t: &Table, col: &ColRef, node: &str) -> Result<usize, CoreError> {
    let want = col.display_name();
    if let Some(i) = t.schema().index_of(&want) {
        return Ok(i);
    }
    let suffix = format!(".{}", col.column);
    let hits: Vec<usize> = t
        .schema()
        .fields()
        .iter()
        .enumerate()
        .filter(|(_, f)| f.name == col.column || f.name.ends_with(&suffix))
        .map(|(i, _)| i)
        .collect();
    match hits.as_slice() {
        [i] => Ok(*i),
        [] => {
            let mut reason = format!("unknown column {want}");
            let names = t.schema().fields().iter().map(|f| f.name.as_str());
            if let Some(s) = crate::env::suggest(&want, names) {
                reason.push_str(&format!(" (did you mean `{s}`?)"));
            }
            Err(CoreError::plan(node, reason))
        }
        _ => Err(CoreError::plan(node, format!("ambiguous column {want}"))),
    }
}

/// A list's length as the `u32` run length a Memory Reader delimits.
fn list_len(items: usize, name: &str, r: usize, node: &str) -> Result<u32, CoreError> {
    u32::try_from(items).map_err(|_| {
        CoreError::unsupported(node, format!("column {name} row {r} list is too long"))
    })
}

/// One typed pass over a list column: items widened and concatenated,
/// with the per-row run lengths.
fn flatten_rows<T: Copy + Into<u64>>(
    rows: &[Vec<T>],
    name: &str,
    node: &str,
) -> Result<(Vec<u64>, Vec<u32>), CoreError> {
    let mut vals = Vec::with_capacity(rows.iter().map(Vec::len).sum());
    let mut lens = Vec::with_capacity(rows.len());
    for (r, items) in rows.iter().enumerate() {
        lens.push(list_len(items.len(), name, r, node)?);
        vals.extend(items.iter().map(|&x| x.into()));
    }
    Ok((vals, lens))
}

/// The dynamically-typed flavor of [`flatten_rows`]: every cell must be a
/// list and every item a number, checked cell by cell (this pass *is*
/// the validation — a `Cell` column promises nothing about its contents).
fn flatten_cells(
    cells: &[Value],
    name: &str,
    node: &str,
) -> Result<(Vec<u64>, Vec<u32>), CoreError> {
    let mut vals = Vec::new();
    let mut lens = Vec::with_capacity(cells.len());
    for (r, v) in cells.iter().enumerate() {
        let Some(items) = v.as_list() else {
            return Err(CoreError::unsupported(
                node,
                format!("column {name} row {r} holds {v:?}, not a list"),
            ));
        };
        lens.push(list_len(items.len(), name, r, node)?);
        for (i, item) in items.iter().enumerate() {
            let Some(x) = item.as_u64() else {
                return Err(CoreError::unsupported(
                    node,
                    format!("column {name} row {r} item {i} holds {item:?}, not a number"),
                ));
            };
            vals.push(x);
        }
    }
    Ok((vals, lens))
}

/// Flattens one list column of `t` into (values, per-row lengths),
/// recording the hardware element width by list dtype.
fn flatten_list_col(
    t: &Table,
    ci: usize,
    node: &str,
) -> Result<PreparedCol, CoreError> {
    let f = &t.schema().fields()[ci];
    let (elem_bytes, decode, (vals, lens)) = match t.column_at(ci) {
        Column::ListU8(rows) => (1, Decode::U64, flatten_rows(rows, &f.name, node)?),
        Column::ListBool(rows) => (1, Decode::Bool, flatten_rows(rows, &f.name, node)?),
        Column::ListU16(rows) => (2, Decode::U64, flatten_rows(rows, &f.name, node)?),
        // Dynamic cells holding numeric lists stream at full width.
        Column::Cell(cells) => (8, Decode::U64, flatten_cells(cells, &f.name, node)?),
        _ => {
            return Err(CoreError::unsupported(
                node,
                format!("column {} has type {:?}, not a per-row list", f.name, f.dtype),
            ))
        }
    };
    Ok(PreparedCol { name: f.name.clone(), elem_bytes, decode, vals, lens: Some(lens) })
}

/// Per-row evaluation of an explode's position expression (the software
/// engine evaluates it with a row context; the lowering admits the two
/// row-independent-or-column shapes that stream through hardware).
fn explode_pos_vals(t: &Table, pos: &Expr, node: &str) -> Result<Vec<u64>, CoreError> {
    match pos {
        Expr::Number(n) => Ok(vec![*n; t.num_rows()]),
        Expr::Col(c) => {
            let not_numeric = |r: usize| {
                CoreError::unsupported(
                    node,
                    format!("position column {} row {r} is not numeric", c.column),
                )
            };
            match t.column_at(schema_col(t, c, node)?) {
                Column::U8(v) => Ok(widen(v)),
                Column::U16(v) => Ok(widen(v)),
                Column::U32(v) => Ok(widen(v)),
                Column::U64(v) => Ok(v.clone()),
                Column::Cell(cells) => cells
                    .iter()
                    .enumerate()
                    .map(|(r, v)| v.as_u64().ok_or_else(|| not_numeric(r)))
                    .collect(),
                // No cell of these types is a number: the first row fails.
                other if other.is_empty() => Ok(Vec::new()),
                _ => Err(not_numeric(0)),
            }
        }
        _ => Err(CoreError::unsupported(
            node,
            "position must be an integer literal or a column reference",
        )),
    }
}

/// Walks one read's packed CIGAR, classifying per-base output rows. Used
/// to derive the explode's output metadata (row counts, nullability,
/// position bounds) exactly as the hardware `ReadToBases` block will
/// stream them.
struct CigarWalk {
    /// Output rows this read emits (M/I/D/N bases; clips emit none).
    out_rows: usize,
    /// Reference bases consumed (M/D/N runs advance `ref_pos`).
    ref_len: u64,
    /// Sequence bases consumed (M/I/S runs advance `seq_idx`).
    seq_len: usize,
    has_ins: bool,
    has_del: bool,
}

fn walk_cigar(packed: &[u64], node: &str) -> Result<CigarWalk, CoreError> {
    use genesis_types::CigarOp;
    let mut w =
        CigarWalk { out_rows: 0, ref_len: 0, seq_len: 0, has_ins: false, has_del: false };
    for &p in packed {
        let elem = genesis_types::CigarElem::unpack(p as u16)
            .map_err(|e| CoreError::unsupported(node, format!("bad CIGAR element: {e}")))?;
        let n = elem.len as usize;
        match elem.op {
            CigarOp::Match | CigarOp::SeqMatch | CigarOp::SeqMismatch => {
                w.out_rows += n;
                w.ref_len += elem.len as u64;
                w.seq_len += n;
            }
            CigarOp::Ins => {
                w.out_rows += n;
                w.seq_len += n;
                w.has_ins |= n > 0;
            }
            CigarOp::Del | CigarOp::RefSkip => {
                w.out_rows += n;
                w.ref_len += elem.len as u64;
                w.has_del |= n > 0;
            }
            CigarOp::SoftClip => w.seq_len += n,
            CigarOp::HardClip => {}
        }
    }
    Ok(w)
}

/// Prepares an explode leaf: absorbs its input `Scan` into one
/// [`PreparedScan`] whose columns are the `ReadToBases` input streams
/// (POS, CIGAR, SEQ[, QUAL]) with list columns flattened, and derives
/// the output-stream metadata by walking every CIGAR. `PosExplode`
/// synthesizes an all-match CIGAR (one `M` run per row, split at the
/// 13-bit packed run-length limit), so both explodes share the same
/// hardware block — exactly how the library maps them.
#[allow(clippy::too_many_lines)]
fn prepare_explode(plan: &LogicalPlan, catalog: &Catalog) -> Result<PreparedScan, CoreError> {
    let node = plan_node_name(plan);
    let (input, pos_expr) = match plan {
        LogicalPlan::ReadExplode { input, pos, .. } => (input, pos.clone()),
        LogicalPlan::PosExplode { input, init_pos, .. } => (input, init_pos.clone()),
        _ => return Err(CoreError::Host("prepare_explode on non-explode".into())),
    };
    let LogicalPlan::Scan { table, partition } = &**input else {
        return Err(CoreError::unsupported(
            node,
            "explode over a derived stream (explode a base table scan)",
        ));
    };
    let t = lookup_table(table, partition.as_ref(), catalog)?;
    let rows = t.num_rows();
    let pos_vals = explode_pos_vals(t, &pos_expr, node)?;
    let (cigar_col, seq_col, qual_col, out_names) = match plan {
        LogicalPlan::ReadExplode { cigar, seq, qual, .. } => {
            let cigar = flatten_list_col(t, schema_col(t, cigar, node)?, node)?;
            let seq = flatten_list_col(t, schema_col(t, seq, node)?, node)?;
            let qual = qual
                .as_ref()
                .map(|q| flatten_list_col(t, schema_col(t, q, node)?, node))
                .transpose()?;
            let mut names = vec!["POS".to_owned(), "SEQ".to_owned()];
            if qual.is_some() {
                names.push("QUAL".to_owned());
            }
            (cigar, seq, qual, names)
        }
        LogicalPlan::PosExplode { array, .. } => {
            let ci = schema_col(t, array, node)?;
            let data = flatten_list_col(t, ci, node)?;
            // Synthesize one all-match run per row (split at the 13-bit
            // packed length limit) so ReadToBases emits (init+i, item).
            let mut vals = Vec::with_capacity(rows);
            let mut lens = Vec::with_capacity(rows);
            let data_lens = data.lens.as_deref().unwrap_or(&[]);
            for &n in data_lens {
                let mut left = n;
                let mut elems = 0u32;
                while left > 0 {
                    let run = left.min((1 << 13) - 1);
                    let elem = genesis_types::CigarElem {
                        op: genesis_types::CigarOp::Match,
                        len: run,
                    };
                    let packed = elem
                        .pack()
                        .map_err(|e| CoreError::Host(format!("synthesized CIGAR: {e}")))?;
                    vals.push(u64::from(packed));
                    elems += 1;
                    left -= run;
                }
                lens.push(elems);
            }
            let cigar = PreparedCol {
                name: "__CIGAR".to_owned(),
                elem_bytes: 2,
                decode: Decode::U64,
                vals,
                lens: Some(lens),
            };
            let name = t.schema().fields()[ci].name.clone();
            (cigar, data, None, vec!["POS".to_owned(), name])
        }
        _ => unreachable!(),
    };
    // Derive the output metadata by walking every read's CIGAR, slicing
    // the flattened columns exactly as the hardware streams them.
    let cigar_lens = cigar_col.lens.as_deref().unwrap_or(&[]);
    let seq_lens = seq_col.lens.as_deref().unwrap_or(&[]);
    let mut out_offsets = Vec::with_capacity(rows + 1);
    out_offsets.push(0usize);
    let (mut has_ins, mut has_del) = (false, false);
    let mut max_pos = 0u64;
    let mut ascending = true;
    let mut prev_pos: Option<u64> = None;
    let mut coff = 0usize;
    for r in 0..rows {
        let clen = cigar_lens[r] as usize;
        let w = walk_cigar(&cigar_col.vals[coff..coff + clen], node)?;
        coff += clen;
        if w.seq_len > seq_lens[r] as usize {
            return Err(CoreError::unsupported(
                node,
                format!(
                    "row {r}: CIGAR consumes {} sequence bases but {} holds {}",
                    w.seq_len, seq_col.name, seq_lens[r]
                ),
            ));
        }
        if let Some(ql) = qual_col.as_ref().and_then(|q| q.lens.as_deref()) {
            if w.seq_len > ql[r] as usize {
                return Err(CoreError::unsupported(
                    node,
                    format!("row {r}: CIGAR consumes more bases than QUAL provides"),
                ));
            }
        }
        out_offsets.push(out_offsets[r] + w.out_rows);
        has_ins |= w.has_ins;
        has_del |= w.has_del;
        let start = pos_vals[r];
        let end = start.saturating_add(w.ref_len);
        max_pos = max_pos.max(end.saturating_sub(1).max(start));
        // Positions within one read strictly increase; the stream is
        // ascending when reads chain without overlap (and no Ins marker
        // interrupts the POS column).
        if w.has_ins || w.ref_len == 0 {
            ascending = false;
        } else {
            if prev_pos.is_some_and(|p| start <= p) {
                ascending = false;
            }
            prev_pos = Some(end - 1);
        }
    }
    let data_max = |c: &PreparedCol| c.vals.iter().copied().max();
    let mut out_cols = vec![ColInfo {
        name: out_names[0].clone(),
        decode: Decode::U64,
        nullable: has_ins,
        ascending,
        max_value: Some(max_pos),
        min_value: 0,
        origin: None,
    }];
    out_cols.push(ColInfo {
        name: out_names[1].clone(),
        decode: seq_col.decode,
        nullable: has_del,
        ascending: false,
        max_value: data_max(&seq_col),
        min_value: 0,
        origin: None,
    });
    if let Some(q) = &qual_col {
        out_cols.push(ColInfo {
            name: out_names[2].clone(),
            decode: q.decode,
            nullable: has_del,
            ascending: false,
            max_value: data_max(q),
            min_value: 0,
            origin: None,
        });
    }
    let has_qual = qual_col.is_some();
    let mut cols = vec![
        PreparedCol {
            name: "POS".to_owned(),
            elem_bytes: 8,
            decode: Decode::U64,
            vals: pos_vals,
            lens: None,
        },
        cigar_col,
        seq_col,
    ];
    cols.extend(qual_col);
    Ok(PreparedScan {
        table: table.clone(),
        rows,
        cols,
        explode: Some(ExplodeSpec { has_qual, out_cols, out_offsets, node }),
        rows_scanned: rows,
        kept: None,
    })
}

/// Width, decode and values of a `Cell` column whose cells are uniformly
/// numeric or uniformly boolean (`None` otherwise — markers cannot
/// round-trip through a Memory Reader, which yields plain values only).
/// The per-cell pass is the validation a dynamically-typed column needs.
fn uniform_cells(cells: &[Value]) -> Option<(usize, Decode, Vec<u64>)> {
    let mut decode = None;
    let mut vals = Vec::with_capacity(cells.len());
    for cell in cells {
        let (d, v) = match cell {
            Value::U64(v) => (Decode::U64, *v),
            Value::Bool(b) => (Decode::Bool, u64::from(*b)),
            _ => return None,
        };
        if *decode.get_or_insert(d) != d {
            return None;
        }
        vals.push(v);
    }
    Some(match decode.unwrap_or(Decode::U64) {
        Decode::U64 => (8, Decode::U64, vals),
        Decode::Bool => (1, Decode::Bool, vals),
    })
}

/// Splits trailing `Sort`/`Limit` nodes off the plan root; they run on the
/// host against the merged hardware output. Returned in application order
/// (innermost first).
fn peel(plan: &LogicalPlan) -> Result<(&LogicalPlan, Vec<Epilogue>), CoreError> {
    let mut epis = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            LogicalPlan::Sort { input, keys } => {
                epis.push(Epilogue::Sort { keys: keys.clone() });
                cur = input;
            }
            LogicalPlan::Limit { input, offset, count } => {
                if !matches!(offset, Expr::Number(_)) || !matches!(count, Expr::Number(_)) {
                    return Err(CoreError::unsupported(
                        "Limit",
                        "offset and count must be integer literals",
                    ));
                }
                epis.push(Epilogue::Limit { offset: offset.clone(), count: count.clone() });
                cur = input;
            }
            _ => break,
        }
    }
    epis.reverse();
    Ok((cur, epis))
}

/// Analyzes `plan` into a shared [`Lowering`] (every job bound from it
/// holds the same `Arc`): peels host epilogues, builds the
/// module graph once on a scratch system (validating every node), and
/// derives the pipeline's cost profile from the scratch build.
pub(crate) fn analyze(
    plan: &LogicalPlan,
    catalog: &Catalog,
    cfg: &DeviceConfig,
) -> Result<Arc<Lowering>, CoreError> {
    let (core, epilogues) = peel(plan)?;
    let mut prepared = Vec::new();
    prepare_scans(core, catalog, &mut prepared)?;
    // Predicate pushdown: absorb supported conjuncts of Filters sitting
    // directly above plain Scan leaves into the scans themselves, so the
    // scratch build below (and every job build after it) streams only
    // surviving rows.
    let (core, pushed) = if cfg.pushdown {
        push_down(core, &prepared)
    } else {
        (core.clone(), Vec::new())
    };
    let mut push_notes = Vec::new();
    if !pushed.is_empty() {
        apply_pushdown(&mut prepared, &pushed)?;
        for pf in &pushed {
            let p = &prepared[pf.scan];
            push_notes.push(format!(
                "Pushdown(Scan({})) -> {} conjunct(s) absorbed ({} rows scanned, {} emitted)",
                p.table,
                pf.conjuncts.len(),
                p.rows_scanned,
                p.rows,
            ));
        }
    }
    let spine_rows = prepared[0].rows;
    let mut sys = System::with_memory(cfg.mem.clone());
    let mut ctx = BuildCtx::new(&prepared, 0..spine_rows, group_domain_cap(cfg));
    let mut b = PipelineBuilder::new(&mut sys, 0);
    let built = build_core(&mut b, &mut ctx, &core)?;
    let kind = match &built.sink {
        Sink::Stream { .. } => SinkKind::Stream,
        Sink::Scalar { parts } => SinkKind::Scalar(parts.iter().map(|p| p.0).collect()),
        Sink::Grouped { .. } => {
            let roles = grouped_roles(&core, &built.cols)?;
            SinkKind::Grouped(roles)
        }
    };
    // A grouped aggregate's software row order is engine-defined (key
    // first-appearance order) while the hardware drains keys in ascending
    // order; bit-identical results therefore require the query to pin the
    // order by sorting on the group key.
    if let SinkKind::Grouped(roles) = &kind {
        let ordered = match epilogues.first() {
            Some(Epilogue::Sort { keys }) if !keys.is_empty() => {
                let i = resolve(&built.cols, &keys[0].0, "Sort")?;
                roles[i] == GroupRole::Key
            }
            _ => false,
        };
        if !ordered {
            return Err(CoreError::unsupported(
                "Aggregate(GROUP BY)",
                "grouped row order is engine-defined; add ORDER BY on the group key",
            ));
        }
    }
    let total = sys.resource_report().total;
    let overhead = shell_overhead() + pipeline_overhead();
    let fabric = ResourceUsage {
        luts: total.luts.saturating_sub(overhead.luts),
        registers: total.registers.saturating_sub(overhead.registers),
        bram_bytes: total.bram_bytes.saturating_sub(overhead.bram_bytes),
    };
    // Post-pushdown row rate of the spine scan: the fraction of scanned
    // spine rows that survive into the pipeline. Replication splits the
    // spine, so a selective scan shortens every replica's batch — the
    // cost model caps the useful replica count by this rate.
    let spine = &prepared[0];
    let selectivity = if spine.rows_scanned == 0 {
        1.0
    } else {
        spine.rows as f64 / spine.rows_scanned as f64
    };
    let profile = PipelineProfile {
        read_port_bytes: ctx.reads.clone(),
        write_port_bytes: ctx.writes.clone(),
        fabric,
        expansion: ctx.expansion,
        selectivity,
    };
    let mut summary = push_notes;
    summary.extend(ctx.summary);
    Ok(Arc::new(Lowering {
        core,
        epilogues,
        pushed,
        cols_names: built.cols.iter().map(|c| c.name.clone()).collect(),
        kind,
        sink_bytes: ctx.sink_bytes,
        profile,
        summary,
    }))
}

/// Re-derives the per-item [`GroupRole`]s of a grouped-aggregate root.
fn grouped_roles(core: &LogicalPlan, cols: &[ColInfo]) -> Result<Vec<GroupRole>, CoreError> {
    let LogicalPlan::Aggregate { items, group_by, .. } = core else {
        return Err(CoreError::Host("grouped sink without aggregate root".into()));
    };
    let mut roles = Vec::new();
    for item in items {
        roles.push(match item {
            SelectItem::Expr { expr: Expr::Col(c), .. } if group_by.contains(c) => GroupRole::Key,
            SelectItem::Agg { func: AggFn::Count, .. }
            | SelectItem::Agg { func: AggFn::Sum, arg: None, .. } => GroupRole::Count,
            SelectItem::Agg { func: AggFn::Sum, .. } => GroupRole::Sum,
            _ => return Err(CoreError::Host("unexpected grouped item".into())),
        });
    }
    if roles.len() != cols.len() {
        return Err(CoreError::Host("grouped role/column mismatch".into()));
    }
    Ok(roles)
}

/// A lowering bound to a copy of its scans' data: everything needed to run the
/// compiled pipeline with no reference back to the catalog. Unlike the
/// catalog (whose custom modules are boxed closures), every field here is
/// `Send`, so a `PreparedJob` can be handed to a host worker thread.
#[derive(Debug, Clone)]
pub(crate) struct PreparedJob {
    /// Shared with the compiled plan it was bound from: binding a request
    /// copies no plan tree.
    lowering: Arc<Lowering>,
    cfg: DeviceConfig,
    prepared: Vec<PreparedScan>,
    factor: usize,
}

/// Host wall-clock a shard spent in each step of its device run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunTimes {
    /// Building the module graphs, including the column uploads.
    pub(crate) build: Duration,
    /// Everything between build and extract: the simulation itself plus
    /// the system set-up and stall accounting around it.
    pub(crate) simulate: Duration,
    /// Reading the sinks back and decoding them.
    pub(crate) extract: Duration,
}

impl RunTimes {
    pub(crate) fn absorb(&mut self, other: RunTimes) {
        self.build += other.build;
        self.simulate += other.simulate;
        self.extract += other.extract;
    }
}

/// Raw output of one shard of a [`PreparedJob`]: the per-batch sink
/// payloads (merged later, in shard order, by [`PreparedJob::gather`])
/// plus the shard's accelerator stats. `Send`, so shards run on
/// independent device-worker threads.
#[derive(Debug)]
pub(crate) struct ShardOut {
    outs: Vec<(JobOut, Vec<ColInfo>)>,
    stats: AccelStats,
    times: RunTimes,
}

impl ShardOut {
    /// The shard's accelerator stats (the serving layer attributes them
    /// to the device that ran the shard).
    pub(crate) fn stats(&self) -> &AccelStats {
        &self.stats
    }

    /// Where the shard's host time went (kept apart from the stats, which
    /// are deterministic and compared bit for bit).
    pub(crate) fn times(&self) -> RunTimes {
        self.times
    }
}

/// Bytes [`genesis_hw::memory::MemorySystem::alloc`] takes for a region of
/// `bytes` bytes (whole lines, never empty).
fn line_padded(bytes: usize) -> usize {
    bytes.max(1).div_ceil(LINE_BYTES) * LINE_BYTES
}

impl PreparedCol {
    /// Payload bytes the column streams for the scan rows `rows`.
    fn payload_bytes(&self, rows: &Range<usize>) -> usize {
        let elems = match &self.lens {
            None => rows.len(),
            // Flattened list columns hold their rows' elements, not one
            // value per row.
            Some(lens) => lens[rows.clone()].iter().map(|&l| l as usize).sum(),
        };
        elems * self.elem_bytes
    }
}

impl PreparedScan {
    /// Payload bytes the scan streams for `rows` (the DMA-in volume).
    fn payload_bytes(&self, rows: &Range<usize>) -> usize {
        self.cols.iter().map(|c| c.payload_bytes(rows)).sum()
    }

    /// Device memory the scan's columns occupy for `rows`.
    fn device_bytes(&self, rows: &Range<usize>) -> usize {
        self.cols.iter().map(|c| line_padded(c.payload_bytes(rows))).sum()
    }
}

impl PreparedJob {
    /// Rows of the spine scan (the table the pipeline streams over).
    pub(crate) fn spine_rows(&self) -> usize {
        self.prepared[0].rows
    }

    /// Splits the spine scan into at most `shards` contiguous ascending
    /// row ranges, aligned to the paper's (chromosome, `PSIZE`-window)
    /// partitions when the spine carries `CHR` + `POS`/`REFPOS` columns
    /// (a shard boundary never splits a run of rows sharing a partition
    /// key); tables without genomic coordinates fall back to an equal
    /// row split. Always covers `0..spine_rows` exactly, so gathering
    /// the shard outputs in range order reproduces the unsharded merge.
    pub(crate) fn shard_ranges(&self, shards: usize) -> Vec<Range<usize>> {
        let n = self.spine_rows();
        if shards <= 1 || n < 2 {
            return std::iter::once(0..n).collect();
        }
        let spine = &self.prepared[0];
        let chr = spine.cols.iter().find(|c| c.name == "CHR");
        let pos = spine.cols.iter().find(|c| c.name == "POS" || c.name == "REFPOS");
        let (Some(chr), Some(pos)) = (chr, pos) else {
            return split_ranges(n, shards);
        };
        if chr.vals.len() != n || pos.vals.len() != n {
            return split_ranges(n, shards);
        }
        let psize = u64::from(self.cfg.psize.max(1));
        let key = |i: usize| (chr.vals[i], pos.vals[i] / psize);
        // Candidate cut points: row indices where the partition key
        // changes between consecutive rows.
        let mut out = Vec::with_capacity(shards);
        let target = n.div_ceil(shards);
        let mut start = 0;
        let mut prev = key(0);
        for i in 1..n {
            let k = key(i);
            let boundary = k != prev;
            prev = k;
            if boundary && i - start >= target && out.len() + 1 < shards {
                out.push(start..i);
                start = i;
            }
        }
        out.push(start..n);
        out
    }

    /// Runs one shard of the job on `cfg`: splits `range` of the spine
    /// scan across the replication factor, simulates the batches, and
    /// returns the raw sink payloads plus stats. Merging and host
    /// epilogues happen once, over all shards, in [`PreparedJob::gather`]
    /// — applying an epilogue (e.g. `LIMIT`) per shard would corrupt the
    /// result.
    pub(crate) fn run_range(
        &self,
        cfg: &DeviceConfig,
        range: Range<usize>,
    ) -> Result<ShardOut, CoreError> {
        let mut ranges: Vec<Range<usize>> = split_ranges(range.len(), self.factor)
            .into_iter()
            .map(|r| range.start + r.start..range.start + r.end)
            .collect();
        if ranges.is_empty() {
            ranges.push(range.start..range.start);
        }
        let run_cfg = cfg.clone().with_pipelines(self.factor);
        let core = &self.lowering.core;
        let prepared = &self.prepared;
        let reserve = self.device_bytes(&ranges);
        let (build_ns, extract_ns) = (AtomicU64::new(0), AtomicU64::new(0));
        let timed = |ns: &AtomicU64, start: Instant| {
            let spent = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ns.fetch_add(spent, Ordering::Relaxed);
        };
        let run_start = Instant::now();
        let (outs, mut stats) = run_batches(
            &run_cfg,
            &ranges,
            |sys, group, r| {
                let start = Instant::now();
                // The replicas share one batch (`factor` pipelines per
                // system), so its first build reserves the whole batch's
                // device memory instead of growing it column by column.
                if group == 0 {
                    sys.reserve_mem(reserve);
                }
                let mut ctx = BuildCtx::new(prepared, r.clone(), group_domain_cap(cfg));
                let mut b = PipelineBuilder::new(sys, group);
                let built = build_core(&mut b, &mut ctx, core);
                timed(&build_ns, start);
                built
            },
            |sys, built, _| {
                let start = Instant::now();
                let out = extract_job(sys, built);
                timed(&extract_ns, start);
                out
            },
        )?;
        let build = Duration::from_nanos(build_ns.into_inner());
        let extract = Duration::from_nanos(extract_ns.into_inner());
        let times = RunTimes {
            build,
            simulate: run_start.elapsed().saturating_sub(build + extract),
            extract,
        };
        // DMA-in: the shard streams its share of the spine scan plus
        // every non-spine scan in full (join right sides replay per
        // shard). For the whole-spine range this is exactly the
        // unsharded job's transfer volume.
        let scan_rows =
            |idx: usize, p: &PreparedScan| if idx == 0 { range.clone() } else { 0..p.rows };
        let dma_in: usize =
            prepared.iter().enumerate().map(|(idx, p)| p.payload_bytes(&scan_rows(idx, p))).sum();
        stats.dma_in_bytes += dma_in as u64;
        stats.dma_transfers += outs.len() as u64 * 2;
        // Pushed-vs-residual visibility: rows the scans examined against
        // pushed predicates vs rows that entered the pipeline (identical
        // when nothing was pushed).
        for (idx, p) in prepared.iter().enumerate() {
            let r = scan_rows(idx, p);
            stats.rows_scanned += p.scanned_rows(&r) as u64;
            stats.rows_emitted += r.len() as u64;
        }
        Ok(ShardOut { outs, stats, times })
    }

    /// Device memory one batch over the replica `ranges` allocates: every
    /// replica's slice of the spine scan, every other scan in full per
    /// replica, and the sinks' output regions. Stream sinks are sized by
    /// the rows they can receive, so their share is exact; aggregate
    /// sinks are sized by key domains only the build derives, so theirs
    /// is the analysis-time measurement per replica — a capacity hint
    /// either way, never an address.
    fn device_bytes(&self, ranges: &[Range<usize>]) -> usize {
        let (spine, rest) = self.prepared.split_first().expect("a lowering scans a spine");
        let rest_bytes: usize = rest.iter().map(|p| p.device_bytes(&(0..p.rows))).sum();
        let exploded = |p: &PreparedScan, rows: &Range<usize>| {
            p.explode.as_ref().map_or(0, |e| e.out_offsets[rows.end] - e.out_offsets[rows.start])
        };
        ranges
            .iter()
            .map(|r| {
                let sinks = match self.lowering.kind {
                    SinkKind::Stream => {
                        let rows_bound = rest
                            .iter()
                            .map(|p| exploded(p, &(0..p.rows)))
                            .fold(r.len().max(exploded(spine, r)), usize::max);
                        self.lowering.cols_names.len() * line_padded(rows_bound * 8)
                    }
                    _ => self.lowering.sink_bytes,
                };
                spine.device_bytes(r) + rest_bytes + sinks
            })
            .sum()
    }

    /// Gathers shard outputs (in shard-range order), merges them exactly
    /// as the unsharded run merges its per-batch outputs, sums the
    /// stats, and replays host epilogues through the software engine.
    /// The merge is invariant under any partition of the spine into
    /// ascending contiguous ranges — stream sinks concatenate in order,
    /// scalar and grouped sinks combine associatively — so the gathered
    /// table is bit-identical to the unsharded run's.
    pub(crate) fn gather(&self, parts: Vec<ShardOut>) -> Result<(Table, AccelStats), CoreError> {
        let mut stats = AccelStats::default();
        let mut outs = Vec::new();
        for part in parts {
            stats.absorb(part.stats);
            outs.extend(part.outs);
        }
        let cols = rebuild_cols(&self.lowering.cols_names, &outs);
        let merged = self.lowering.merge(outs, &cols)?;
        stats.dma_out_bytes += merged.byte_size();
        let table = self.lowering.apply_epilogues(merged)?;
        Ok((table, stats))
    }

    /// Runs the job unsharded: splits the spine scan across the
    /// replication factor, simulates the batches, merges per-job results
    /// and replays host epilogues through the software engine.
    pub(crate) fn run(self) -> Result<(Table, AccelStats), CoreError> {
        let whole = 0..self.spine_rows();
        let part = self.run_range(&self.cfg.clone(), whole)?;
        self.gather(vec![part])
    }
}

impl Lowering {
    /// Output column names (the compiled pipeline's schema).
    pub(crate) fn output_columns(&self) -> &[String] {
        &self.cols_names
    }

    /// Binds the lowering to `catalog`'s current data: copies every
    /// scanned column so the returned job is `Send` and can run on a host
    /// worker thread (the catalog itself holds non-`Send` custom modules).
    pub(crate) fn prepare(
        self: &Arc<Self>,
        cfg: &DeviceConfig,
        catalog: &Catalog,
        factor: usize,
    ) -> Result<PreparedJob, CoreError> {
        let mut prepared = Vec::new();
        prepare_scans(&self.core, catalog, &mut prepared)?;
        // Re-apply the pushed conjuncts to the freshly bound data (the
        // catalog's tables may have changed since analysis).
        apply_pushdown(&mut prepared, &self.pushed)?;
        Ok(PreparedJob {
            lowering: Arc::clone(self),
            cfg: cfg.clone(),
            prepared,
            factor: factor.max(1),
        })
    }

    /// Executes the lowering: splits the spine scan across `factor`
    /// replicated pipelines, simulates the batches, merges per-job results
    /// and replays host epilogues through the software engine.
    pub(crate) fn execute(
        self: &Arc<Self>,
        cfg: &DeviceConfig,
        catalog: &Catalog,
        factor: usize,
    ) -> Result<(Table, AccelStats), CoreError> {
        self.prepare(cfg, catalog, factor)?.run()
    }

    /// Merges per-job outputs column-wise: every sink kind produces one
    /// decoded `Vec<Value>` per output column, and the table is assembled
    /// from those columns in one step.
    fn merge(&self, outs: Vec<(JobOut, Vec<ColInfo>)>, cols: &[ColInfo]) -> Result<Table, CoreError> {
        let columns: Vec<Vec<Value>> = match &self.kind {
            SinkKind::Stream => {
                let mut columns: Vec<Vec<Value>> = vec![Vec::new(); cols.len()];
                for (out, _) in outs {
                    let JobOut::Cols(job) = out else {
                        return Err(CoreError::Host("stream sink produced non-rows".into()));
                    };
                    for (acc, col) in columns.iter_mut().zip(job) {
                        if acc.is_empty() {
                            *acc = col;
                        } else {
                            acc.extend(col);
                        }
                    }
                }
                columns
            }
            SinkKind::Scalar(kinds) => {
                let mut acc: Vec<(u64, Option<u64>)> = vec![(0, None); kinds.len()];
                for (out, _) in outs {
                    let JobOut::Scalar(parts) = out else {
                        return Err(CoreError::Host("scalar sink produced non-scalars".into()));
                    };
                    for (slot, (kind, val)) in acc.iter_mut().zip(parts) {
                        match kind {
                            ScalarKind::Count | ScalarKind::Sum => {
                                slot.0 += val.unwrap_or(0);
                            }
                            ScalarKind::Min => {
                                slot.1 = match (slot.1, val) {
                                    (Some(a), Some(b)) => Some(a.min(b)),
                                    (a, b) => a.or(b),
                                };
                            }
                            ScalarKind::Max => {
                                slot.1 = match (slot.1, val) {
                                    (Some(a), Some(b)) => Some(a.max(b)),
                                    (a, b) => a.or(b),
                                };
                            }
                        }
                    }
                }
                kinds
                    .iter()
                    .zip(&acc)
                    .map(|(kind, slot)| {
                        vec![match kind {
                            ScalarKind::Count | ScalarKind::Sum => Value::U64(slot.0),
                            ScalarKind::Min | ScalarKind::Max => {
                                slot.1.map_or(Value::Null, Value::U64)
                            }
                        }]
                    })
                    .collect()
            }
            SinkKind::Grouped(roles) => {
                let key_pos = roles
                    .iter()
                    .position(|r| *r == GroupRole::Key)
                    .ok_or_else(|| CoreError::Host("grouped sink without key column".into()))?;
                // Raw accumulator columns in first-seen order, and each
                // key's row in them; the map's key order is the output
                // order.
                let mut acc: Vec<Vec<u64>> = vec![Vec::new(); roles.len()];
                let mut row_of: BTreeMap<u64, usize> = BTreeMap::new();
                for (out, _) in outs {
                    let JobOut::Grouped(job) = out else {
                        return Err(CoreError::Host("grouped sink produced non-groups".into()));
                    };
                    for (r, &key) in job[key_pos].iter().enumerate() {
                        match row_of.entry(key) {
                            Entry::Vacant(e) => {
                                e.insert(acc[key_pos].len());
                                for (a, col) in acc.iter_mut().zip(&job) {
                                    a.push(col[r]);
                                }
                            }
                            Entry::Occupied(e) => {
                                let row = *e.get();
                                for ((role, a), col) in roles.iter().zip(&mut acc).zip(&job) {
                                    if *role != GroupRole::Key {
                                        a[row] = a[row].wrapping_add(col[r]);
                                    }
                                }
                            }
                        }
                    }
                }
                roles
                    .iter()
                    .zip(&acc)
                    .zip(cols)
                    .map(|((role, a), col)| {
                        row_of
                            .values()
                            .map(|&row| match (role, col.decode) {
                                (GroupRole::Key, Decode::Bool) => Value::Bool(a[row] != 0),
                                _ => Value::U64(a[row]),
                            })
                            .collect()
                    })
                    .collect()
            }
        };
        let fields: Vec<Field> =
            cols.iter().map(|c| Field::new(&c.name, DataType::Cell)).collect();
        Ok(Table::from_columns(
            Schema::new(fields),
            columns.into_iter().map(Column::Cell).collect(),
        )?)
    }

    fn apply_epilogues(&self, table: Table) -> Result<Table, CoreError> {
        if self.epilogues.is_empty() {
            return Ok(table);
        }
        let mut catalog = Catalog::new();
        catalog.register(HW_OUT, table);
        let mut plan = LogicalPlan::Scan { table: HW_OUT.to_owned(), partition: None };
        for e in &self.epilogues {
            plan = match e {
                Epilogue::Sort { keys } => {
                    LogicalPlan::Sort { input: Box::new(plan), keys: keys.clone() }
                }
                Epilogue::Limit { offset, count } => LogicalPlan::Limit {
                    input: Box::new(plan),
                    offset: offset.clone(),
                    count: count.clone(),
                },
            };
        }
        execute_plan(&plan, &catalog, &Env::default())
            .map_err(|e| CoreError::Host(format!("host epilogue: {e}")))
    }
}

/// Column metadata for merging: taken from the first job's build (all jobs
/// build identical structure), falling back to names only.
fn rebuild_cols(names: &[String], outs: &[(JobOut, Vec<ColInfo>)]) -> Vec<ColInfo> {
    outs.first().map_or_else(
        || {
            names
                .iter()
                .map(|n| ColInfo {
                    name: n.clone(),
                    decode: Decode::U64,
                    nullable: false,
                    ascending: false,
                    max_value: None,
                    min_value: 0,
                    origin: None,
                })
                .collect()
        },
        |(_, cols)| cols.clone(),
    )
}

/// Builds the full pipeline for the core plan and attaches its sink.
fn build_core(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    core: &LogicalPlan,
) -> Result<Built, CoreError> {
    match core {
        LogicalPlan::Aggregate { input, items, group_by } if group_by.is_empty() => {
            build_scalar_agg(b, ctx, input, items)
        }
        LogicalPlan::Aggregate { input, items, group_by } => {
            build_grouped_agg(b, ctx, input, items, group_by)
        }
        _ => {
            let s = build_node(b, ctx, core)?;
            build_stream_sink(b, ctx, s)
        }
    }
}

/// Lowers one plan node to modules, returning its output stream.
fn build_node(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    plan: &LogicalPlan,
) -> Result<Stream, CoreError> {
    match plan {
        LogicalPlan::Scan { .. } => build_scan(b, ctx),
        LogicalPlan::Filter { input, pred } => {
            let s = build_node(b, ctx, input)?;
            build_filter(b, ctx, s, pred)
        }
        LogicalPlan::Project { input, items } => {
            let s = build_node(b, ctx, input)?;
            build_project(b, ctx, s, items)
        }
        LogicalPlan::Join { kind, left, right, left_key, right_key } => {
            let l = build_node(b, ctx, left)?;
            let r = build_node(b, ctx, right)?;
            build_join(b, ctx, *kind, l, r, left_key, right_key)
        }
        LogicalPlan::PosExplode { .. } | LogicalPlan::ReadExplode { .. } => {
            build_explode(b, ctx)
        }
        LogicalPlan::Aggregate { .. } => Err(CoreError::unsupported(
            "Aggregate",
            "aggregation is only supported at the plan root",
        )),
        other => Err(CoreError::unsupported(
            plan_node_name(other),
            "not lowerable inside a hardware pipeline",
        )),
    }
}

/// Lowers an explode leaf: one Memory Reader per `ReadToBases` input
/// stream (POS delimited per row, list columns delimited by their run
/// lengths), the `ReadToBases` genomics block from the module library,
/// and a drop-ends Zip selecting the relational output fields — turning
/// the per-read delimited base stream into the plain row stream every
/// downstream module expects. Expansion (output rows per input row) is
/// recorded for the Figure 8 replication profile.
fn build_explode(b: &mut PipelineBuilder<'_>, ctx: &mut BuildCtx<'_>) -> Result<Stream, CoreError> {
    use genesis_hw::modules::read_to_bases::{ReadToBases, ReadToBasesInputs};
    let idx = ctx.next_scan;
    ctx.next_scan += 1;
    let prepared = ctx.prepared;
    let ps = &prepared[idx];
    let spec = ps
        .explode
        .as_ref()
        .ok_or_else(|| CoreError::Host("explode node over a plain scan leaf".into()))?;
    let range = if idx == 0 { ctx.spine_range.clone() } else { 0..ps.rows };
    let table = &ps.table;
    let mut qs = Vec::with_capacity(ps.cols.len());
    for c in &ps.cols {
        let label = ctx.lbl(&format!("{table}.{}", c.name));
        let q = match &c.lens {
            // One delimiter per row keeps POS aligned with the per-read
            // runs of the list streams.
            None => b.upload_values(
                &label,
                &c.vals[range.clone()],
                c.elem_bytes,
                RowSpec::Fixed(1),
            ),
            Some(lens) => {
                let flat_start: usize =
                    lens[..range.start].iter().map(|&l| l as usize).sum();
                let flat_len: usize =
                    lens[range.clone()].iter().map(|&l| l as usize).sum();
                let rows = PipelineBuilder::rows_from_lens(&lens[range.clone()]);
                b.upload_values(
                    &label,
                    &c.vals[flat_start..flat_start + flat_len],
                    c.elem_bytes,
                    rows,
                )
            }
        };
        ctx.reads.push(c.elem_bytes);
        qs.push(q);
    }
    let inputs = ReadToBasesInputs {
        pos: qs[0],
        cigar: qs[1],
        seq: qs[2],
        qual: if spec.has_qual { Some(qs[3]) } else { None },
    };
    let bases = b.queue(&ctx.lbl("explode.bases"));
    let rl = ctx.lbl("explode.rtb");
    b.system().add_module(Box::new(ReadToBases::new(&rl, inputs, bases)));
    // Select [REFPOS, BASE(, QUAL)] and strip the per-read delimiters.
    let sel: Vec<usize> = if spec.has_qual { vec![0, 1, 2] } else { vec![0, 1] };
    let rows_q = b.queue(&ctx.lbl("explode.rows"));
    let zl = ctx.lbl("explode.zip");
    b.system()
        .add_module(Box::new(Zip::new(&zl, vec![ZipInput::new(bases, sel)], rows_q).with_drop_ends()));
    let out_rows = spec.out_offsets[range.end] - spec.out_offsets[range.start];
    let in_rows = range.len().max(1);
    ctx.expansion = ctx.expansion.max(out_rows as f64 / in_rows as f64);
    ctx.rows_bound = ctx.rows_bound.max(out_rows);
    ctx.note(format!(
        "{}({table}) -> {}x MemoryReader + ReadToBases + Zip ({out_rows} rows from {})",
        spec.node,
        ps.cols.len(),
        range.len(),
    ));
    Ok(Stream { q: rows_q, cols: spec.out_cols.clone() })
}

/// `(strictly ascending, min, max)` of a scanned range, in one pass
/// (`min` is the trivial bound 0 and `max` is `None` for an empty range).
fn range_stats(vals: &[u64]) -> (bool, u64, Option<u64>) {
    let Some((&first, rest)) = vals.split_first() else { return (true, 0, None) };
    let (mut ascending, mut prev, mut min, mut max) = (true, first, first, first);
    for &v in rest {
        ascending &= prev < v;
        prev = v;
        min = min.min(v);
        max = max.max(v);
    }
    (ascending, min, Some(max))
}

fn build_scan(b: &mut PipelineBuilder<'_>, ctx: &mut BuildCtx<'_>) -> Result<Stream, CoreError> {
    let idx = ctx.next_scan;
    ctx.next_scan += 1;
    let prepared = ctx.prepared;
    let ps = &prepared[idx];
    let range = if idx == 0 { ctx.spine_range.clone() } else { 0..ps.rows };
    let ncols = ps.cols.len();
    if ncols == 0 {
        return Err(CoreError::unsupported(
            format!("Scan({})", ps.table),
            "table has no columns",
        ));
    }
    let table = &ps.table;
    let mut inputs = Vec::with_capacity(ncols);
    let mut cols = Vec::with_capacity(ncols);
    for (ci, c) in ps.cols.iter().enumerate() {
        let vals = &c.vals[range.clone()];
        let label = ctx.lbl(&format!("{table}.{}", c.name));
        let q = b.upload_values(&label, vals, c.elem_bytes, RowSpec::None);
        ctx.reads.push(c.elem_bytes);
        inputs.push(ZipInput::new(q, vec![0]));
        let (ascending, min_value, max_value) = range_stats(vals);
        cols.push(ColInfo {
            name: c.name.clone(),
            decode: c.decode,
            nullable: false,
            ascending,
            max_value,
            min_value,
            origin: Some((idx, ci)),
        });
    }
    let q = if inputs.len() == 1 {
        inputs[0].queue
    } else {
        let rows_q = b.queue(&ctx.lbl(&format!("{table}.rows")));
        let label = ctx.lbl(&format!("{table}.zip"));
        b.system().add_module(Box::new(Zip::new(&label, inputs, rows_q)));
        rows_q
    };
    ctx.note(format!(
        "Scan({table}) -> {ncols}x MemoryReader{}",
        if ncols > 1 { " + Zip" } else { "" }
    ));
    Ok(Stream { q, cols })
}

fn conjuncts<'e>(pred: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Bin { op: BinOp::And, lhs, rhs } = pred {
        conjuncts(lhs, out);
        conjuncts(rhs, out);
    } else {
        out.push(pred);
    }
}

/// One scan's pushed-down filter: the conjuncts a `Filter` directly above
/// that plain `Scan` leaf contributed, applied to the prepared rows when
/// the lowering binds to catalog data (before any byte is written to
/// the device), so Memory Readers and everything downstream see only
/// surviving rows.
#[derive(Debug, Clone)]
struct PushedFilter {
    /// Index into the prepared-scan list (leaf order).
    scan: usize,
    conjuncts: Vec<Expr>,
}

/// Column metadata of a bare prepared scan (what a `Filter` directly
/// above the `Scan` leaf would see), for resolving pushed conjuncts.
fn scan_infos(scan: &PreparedScan) -> Vec<ColInfo> {
    scan.cols
        .iter()
        .map(|c| ColInfo {
            name: c.name.clone(),
            decode: c.decode,
            nullable: false,
            ascending: false,
            max_value: None,
            min_value: 0,
            origin: None,
        })
        .collect()
}

/// Rewrites the core plan for pushdown: every `Filter` sitting directly
/// above a plain `Scan` leaf is split into pushable conjuncts (recorded
/// per scan, applied at bind time) and residual conjuncts (left as a
/// lowered Filter module). A conjunct is pushed exactly when
/// [`lower_predicate`] resolves it against the bare scan's columns, i.e.
/// when the hardware Filter it replaces would have been built.
/// Conjunction is commutative and survivors keep their relative order,
/// so the rewritten plan's streams are bit-identical to the original's.
/// The traversal mirrors [`prepare_scans`]' left-to-right leaf order —
/// and since only Filter *nodes* are removed, that leaf order is invariant under the rewrite,
/// which is what lets [`Lowering::prepare`] re-apply the pushed conjuncts
/// by scan index after re-preparing.
fn push_down(plan: &LogicalPlan, prepared: &[PreparedScan]) -> (LogicalPlan, Vec<PushedFilter>) {
    fn rewrite(
        plan: &LogicalPlan,
        prepared: &[PreparedScan],
        next_scan: &mut usize,
        pushed: &mut Vec<PushedFilter>,
    ) -> LogicalPlan {
        match plan {
            // Explode leaves absorb their input scan; nothing to push.
            LogicalPlan::Scan { .. }
            | LogicalPlan::PosExplode { .. }
            | LogicalPlan::ReadExplode { .. } => {
                *next_scan += 1;
                plan.clone()
            }
            LogicalPlan::Filter { input, pred }
                if matches!(&**input, LogicalPlan::Scan { .. }) =>
            {
                let idx = *next_scan;
                *next_scan += 1;
                let infos = scan_infos(&prepared[idx]);
                let mut parts = Vec::new();
                conjuncts(pred, &mut parts);
                let (push, residual): (Vec<&Expr>, Vec<&Expr>) = parts
                    .into_iter()
                    .partition(|e| lower_predicate(&infos, e).is_ok());
                if push.is_empty() {
                    return plan.clone();
                }
                pushed.push(PushedFilter {
                    scan: idx,
                    conjuncts: push.into_iter().cloned().collect(),
                });
                match residual.into_iter().cloned().reduce(|acc, e| Expr::Bin {
                    op: BinOp::And,
                    lhs: Box::new(acc),
                    rhs: Box::new(e),
                }) {
                    None => (**input).clone(),
                    Some(pred) => LogicalPlan::Filter { input: input.clone(), pred },
                }
            }
            LogicalPlan::Filter { input, pred } => LogicalPlan::Filter {
                input: Box::new(rewrite(input, prepared, next_scan, pushed)),
                pred: pred.clone(),
            },
            LogicalPlan::Project { input, items } => LogicalPlan::Project {
                input: Box::new(rewrite(input, prepared, next_scan, pushed)),
                items: items.clone(),
            },
            LogicalPlan::Aggregate { input, items, group_by } => LogicalPlan::Aggregate {
                input: Box::new(rewrite(input, prepared, next_scan, pushed)),
                items: items.clone(),
                group_by: group_by.clone(),
            },
            LogicalPlan::Join { kind, left, right, left_key, right_key } => LogicalPlan::Join {
                kind: *kind,
                left: Box::new(rewrite(left, prepared, next_scan, pushed)),
                right: Box::new(rewrite(right, prepared, next_scan, pushed)),
                left_key: left_key.clone(),
                right_key: right_key.clone(),
            },
            // Sort/Limit were peeled off the core before pushdown runs.
            other => other.clone(),
        }
    }
    let mut pushed = Vec::new();
    let mut next_scan = 0usize;
    let out = rewrite(plan, prepared, &mut next_scan, &mut pushed);
    (out, pushed)
}

/// Narrows the ascending row list `kept` to the rows `test` passes. The
/// survivor count advances by the test's outcome instead of branching on
/// it: a selective predicate over unordered data is the worst case for a
/// branch predictor.
fn retain_rows(kept: &mut Vec<usize>, test: impl Fn(usize) -> bool) {
    let mut live = 0;
    for i in 0..kept.len() {
        let r = kept[i];
        kept[live] = r;
        live += usize::from(test(r));
    }
    kept.truncate(live);
}

/// Applies the pushed conjuncts to their prepared scans: the row-selection
/// step run whenever scan data is (re)bound from a catalog. The conjuncts
/// resolve once, to the hardware [`Predicate`]s a lowered Filter would
/// hold; base-table scans never carry `Ins`/`Del` markers, so each reduces
/// to [`CmpOp::holds`] over plain `u64`s — the Filter module's own
/// comparison — and narrows the survivor list in one pass over its operand
/// columns ([`retain_rows`]); the columns then compact in place.
/// Surviving rows keep their relative order, so downstream modules see
/// exactly the stream a lowered Filter would have produced.
fn apply_pushdown(
    prepared: &mut [PreparedScan],
    pushed: &[PushedFilter],
) -> Result<(), CoreError> {
    for pf in pushed {
        let scan = prepared
            .get_mut(pf.scan)
            .ok_or_else(|| CoreError::Host("pushed filter references a missing scan".into()))?;
        let infos = scan_infos(scan);
        let preds: Vec<Predicate> = pf
            .conjuncts
            .iter()
            .map(|e| {
                lower_predicate(&infos, e).map_err(|_| {
                    CoreError::Host("pushed conjunct no longer resolves against the scan".into())
                })
            })
            .collect::<Result<_, _>>()?;
        let n = scan.rows;
        let mut kept: Vec<usize> = (0..n).collect();
        for p in &preds {
            // `lower_predicate` only ever puts a field on the left.
            let Operand::Field(i) = p.lhs else {
                return Err(CoreError::Host("pushed conjunct has no column operand".into()));
            };
            let lhs = &scan.cols[i].vals;
            match p.rhs {
                Operand::Const(v) => retain_rows(&mut kept, |r| p.op.holds(lhs[r], v)),
                Operand::Field(j) => {
                    let rhs = &scan.cols[j].vals;
                    retain_rows(&mut kept, |r| p.op.holds(lhs[r], rhs[r]));
                }
            }
        }
        scan.rows_scanned = n;
        if kept.len() == n {
            continue; // nothing dropped; the scan streams unchanged
        }
        for col in &mut scan.cols {
            debug_assert!(col.lens.is_none(), "pushdown over a flattened list column");
            // `kept` ascends, so `kept[i] >= i`: no source is overwritten
            // before it is read.
            for (i, &r) in kept.iter().enumerate() {
                col.vals[i] = col.vals[r];
            }
            col.vals.truncate(kept.len());
        }
        scan.rows = kept.len();
        scan.kept = Some(kept);
    }
    Ok(())
}

fn build_filter(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    s: Stream,
    pred: &Expr,
) -> Result<Stream, CoreError> {
    let mut parts = Vec::new();
    conjuncts(pred, &mut parts);
    let mut q = s.q;
    let n = parts.len();
    let mut cols = s.cols.clone();
    for part in &parts {
        let hw = lower_predicate(&s.cols, part)?;
        let out = b.queue(&ctx.lbl("filter"));
        let label = ctx.lbl("filter");
        b.system().add_module(Box::new(Filter::new(&label, hw, q, out)));
        q = out;
        narrow_filtered_col(&mut cols, part);
    }
    ctx.note(format!("Filter -> {n}x Filter"));
    Ok(Stream { q, cols })
}

/// Narrows column metadata through a lowered conjunct. Both engines drop
/// `Ins`/`Del` sentinels on ordered and `Eq` comparisons (sentinels
/// compare unequal-and-unordered to everything), so a column surviving
/// such a comparison against a literal is no longer nullable — and
/// upper-bounding comparisons tighten its `max_value`, which is what
/// admits `GROUP BY POS` over an exploded stream behind `WHERE POS < n`.
fn narrow_filtered_col(cols: &mut [ColInfo], part: &Expr) {
    let Expr::Bin { op, lhs, rhs } = part else { return };
    let Some(cmp) = cmp_of(*op) else { return };
    let (col, lit, cmp) = match (&**lhs, &**rhs) {
        (Expr::Col(c), Expr::Number(n)) => (c, *n, cmp),
        (Expr::Number(n), Expr::Col(c)) => (c, *n, mirror(cmp)),
        _ => return,
    };
    let Ok(i) = resolve(cols, col, "Filter") else { return };
    match cmp {
        // IsVal passes exactly the non-marker values, so it narrows too.
        CmpOp::Lt | CmpOp::Le | CmpOp::Eq | CmpOp::Gt | CmpOp::Ge | CmpOp::IsVal => {
            cols[i].nullable = false;
        }
        CmpOp::Ne => return,
    }
    let bound = match cmp {
        // `lit == 0` makes `x < 0` pass nothing, so the saturated claim
        // `max <= 0` is vacuously valid for the (empty) survivors.
        CmpOp::Lt => Some(lit.saturating_sub(1)),
        CmpOp::Le | CmpOp::Eq => Some(lit),
        _ => None,
    };
    if let Some(bd) = bound {
        cols[i].max_value = Some(cols[i].max_value.map_or(bd, |m| m.min(bd)));
    }
    let floor = match cmp {
        // Dually, `lit == u64::MAX` makes `x > MAX` pass nothing and the
        // saturated floor `MAX` is vacuously valid for the empty stream.
        CmpOp::Gt => Some(lit.saturating_add(1)),
        CmpOp::Ge | CmpOp::Eq => Some(lit),
        _ => None,
    };
    if let Some(fl) = floor {
        cols[i].min_value = cols[i].min_value.max(fl);
    }
}

/// Lowers one conjunct to a hardware [`Predicate`], rejecting shapes whose
/// hardware evaluation would diverge from the software engine (the engine
/// treats `Bool` and numbers as *never equal*, and ordered comparisons on
/// non-`U64` cells as false).
fn lower_predicate(cols: &[ColInfo], e: &Expr) -> Result<Predicate, CoreError> {
    let Expr::Bin { op, lhs, rhs } = e else {
        return Err(CoreError::unsupported(
            "Filter",
            "predicate must be a comparison (bare columns/values are not lowered)",
        ));
    };
    let Some(cmp) = cmp_of(*op) else {
        return Err(CoreError::unsupported(
            "Filter",
            format!("operator {op:?} is not a hardware comparison"),
        ));
    };
    match (&**lhs, &**rhs) {
        (Expr::Col(a), Expr::Number(n)) => {
            let i = resolve(cols, a, "Filter")?;
            require_u64(&cols[i], "Filter", "compared against a number")?;
            Ok(Predicate::field_const(i, cmp, *n))
        }
        (Expr::Number(n), Expr::Col(a)) => {
            let i = resolve(cols, a, "Filter")?;
            require_u64(&cols[i], "Filter", "compared against a number")?;
            Ok(Predicate::field_const(i, mirror(cmp), *n))
        }
        (Expr::Col(a), Expr::Col(bc)) => {
            let i = resolve(cols, a, "Filter")?;
            let j = resolve(cols, bc, "Filter")?;
            let both_bool = cols[i].decode == Decode::Bool && cols[j].decode == Decode::Bool;
            let eqish = matches!(cmp, CmpOp::Eq | CmpOp::Ne);
            if !(both_bool && eqish) {
                require_u64(&cols[i], "Filter", "ordered or mixed-type comparison")?;
                require_u64(&cols[j], "Filter", "ordered or mixed-type comparison")?;
            }
            Ok(Predicate::fields(i, cmp, j))
        }
        _ => Err(CoreError::unsupported(
            "Filter",
            "predicate operands must be columns or integer literals",
        )),
    }
}

fn require_u64(col: &ColInfo, node: &str, what: &str) -> Result<(), CoreError> {
    if col.decode == Decode::U64 {
        Ok(())
    } else {
        Err(CoreError::unsupported(
            node,
            format!(
                "column {} is BOOL, {what}: the software engine never equates \
                 booleans with numbers",
                col.name
            ),
        ))
    }
}

/// One expanded output item of a projection.
enum ProjItem {
    Pass { src: usize, name: String },
    Comp { plan: CompPlan, name: String, decode: Decode },
}

/// An ALU computation plan: `alu(op, lhs_field, rhs)`, optionally followed
/// by `XOR 1` (boolean negation for the derived comparisons).
struct CompPlan {
    lhs_field: usize,
    rhs: CompRhs,
    op: AluOp,
    negate: bool,
}

enum CompRhs {
    Lit(u64),
    Field(usize),
}

fn operand(cols: &[ColInfo], e: &Expr) -> Result<Option<CompOperand>, CoreError> {
    match e {
        Expr::Col(c) => {
            let i = resolve(cols, c, "Project")?;
            if cols[i].decode != Decode::U64 || cols[i].nullable {
                return Err(CoreError::unsupported(
                    "Project",
                    format!(
                        "computed item over column {} (BOOL or nullable operands change \
                         software semantics)",
                        cols[i].name
                    ),
                ));
            }
            Ok(Some(CompOperand::Field(i)))
        }
        Expr::Number(n) => Ok(Some(CompOperand::Lit(*n))),
        _ => Ok(None),
    }
}

enum CompOperand {
    Field(usize),
    Lit(u64),
}

/// Plans one computed binary item as a 1–2 ALU chain. Derived forms:
/// `Ne = !Eq`, `x <= n` as `x < n+1`, `x > n` as `!(x < n+1)`, and
/// column/column `Gt`/`Le` by swapping the comparison's stream operands.
fn plan_comp(op: BinOp, l: &CompOperand, r: &CompOperand) -> Result<(CompPlan, Decode), CoreError> {
    use CompOperand::{Field, Lit};
    let unsup = |why: &str| Err(CoreError::unsupported("Project", why.to_owned()));
    let bool_out = |p: CompPlan| Ok((p, Decode::Bool));
    let u64_out = |p: CompPlan| Ok((p, Decode::U64));
    let plan = |lhs_field, rhs, alu, negate| CompPlan { lhs_field, rhs, op: alu, negate };
    match (l, r) {
        (Field(a), Lit(n)) => match op {
            BinOp::Add => u64_out(plan(*a, CompRhs::Lit(*n), AluOp::Add, false)),
            BinOp::Sub => u64_out(plan(*a, CompRhs::Lit(*n), AluOp::Sub, false)),
            BinOp::Eq => bool_out(plan(*a, CompRhs::Lit(*n), AluOp::CmpEq, false)),
            BinOp::Ne => bool_out(plan(*a, CompRhs::Lit(*n), AluOp::CmpEq, true)),
            BinOp::Lt => bool_out(plan(*a, CompRhs::Lit(*n), AluOp::CmpLt, false)),
            BinOp::Ge => bool_out(plan(*a, CompRhs::Lit(*n), AluOp::CmpLt, true)),
            BinOp::Le if *n < u64::MAX => {
                bool_out(plan(*a, CompRhs::Lit(n + 1), AluOp::CmpLt, false))
            }
            BinOp::Gt if *n < u64::MAX => {
                bool_out(plan(*a, CompRhs::Lit(n + 1), AluOp::CmpLt, true))
            }
            _ => unsup("comparison against u64::MAX or non-arithmetic operator"),
        },
        (Lit(n), Field(a)) => match op {
            BinOp::Add => u64_out(plan(*a, CompRhs::Lit(*n), AluOp::Add, false)),
            BinOp::Eq => bool_out(plan(*a, CompRhs::Lit(*n), AluOp::CmpEq, false)),
            BinOp::Ne => bool_out(plan(*a, CompRhs::Lit(*n), AluOp::CmpEq, true)),
            BinOp::Gt => bool_out(plan(*a, CompRhs::Lit(*n), AluOp::CmpLt, false)),
            BinOp::Le => bool_out(plan(*a, CompRhs::Lit(*n), AluOp::CmpLt, true)),
            BinOp::Lt if *n < u64::MAX => {
                bool_out(plan(*a, CompRhs::Lit(n + 1), AluOp::CmpLt, true))
            }
            BinOp::Ge if *n < u64::MAX => {
                bool_out(plan(*a, CompRhs::Lit(n + 1), AluOp::CmpLt, false))
            }
            BinOp::Sub => unsup("literal-minus-column subtraction"),
            _ => unsup("comparison against u64::MAX or non-arithmetic operator"),
        },
        (Field(a), Field(bf)) => match op {
            BinOp::Add => u64_out(plan(*a, CompRhs::Field(*bf), AluOp::Add, false)),
            BinOp::Sub => u64_out(plan(*a, CompRhs::Field(*bf), AluOp::Sub, false)),
            BinOp::Eq => bool_out(plan(*a, CompRhs::Field(*bf), AluOp::CmpEq, false)),
            BinOp::Ne => bool_out(plan(*a, CompRhs::Field(*bf), AluOp::CmpEq, true)),
            BinOp::Lt => bool_out(plan(*a, CompRhs::Field(*bf), AluOp::CmpLt, false)),
            BinOp::Gt => bool_out(plan(*bf, CompRhs::Field(*a), AluOp::CmpLt, false)),
            BinOp::Le => bool_out(plan(*bf, CompRhs::Field(*a), AluOp::CmpLt, true)),
            BinOp::Ge => bool_out(plan(*a, CompRhs::Field(*bf), AluOp::CmpLt, true)),
            _ => unsup("non-arithmetic operator over two columns"),
        },
        (Lit(_), Lit(_)) => unsup("constant expression (no stream operand)"),
    }
}

/// `(min, max)` bounds on a computed item's values, when derivable:
/// comparisons yield 0/1, and `Add`/`Sub` bound their result only when
/// *no row can wrap* — the engine computes with
/// `wrapping_add`/`wrapping_sub` (`genesis-sql::exec`), so a saturated
/// or minuend-only bound would declare a GROUP BY scratchpad domain the
/// wrapped keys escape (a ~2^64 key aliased into a small histogram).
/// Three wrap-freedom proofs are accepted, in order:
///
/// - `Add`: the operand maxima sum without overflow.
/// - `Sub` over two columns of the *same* prepared scan: the rows stream
///   aligned (see [`ColInfo::origin`]), so the exact per-row differences
///   over the scanned data bound every subset of its rows — this admits
///   mate-distance histograms (`MPOS - POS` with per-row `MPOS >= POS`)
///   even when the columns' value *ranges* overlap.
/// - `Sub` by range: the minuend's minimum covers the subtrahend's
///   maximum, so no row can underflow.
///
/// Anything else yields `(0, None)` — no derivable bound — and GROUP BY
/// over the result is rejected instead of mis-sized.
fn comp_bounds(
    cols: &[ColInfo],
    prepared: &[PreparedScan],
    plan: &CompPlan,
    decode: Decode,
) -> (u64, Option<u64>) {
    const NO_BOUND: (u64, Option<u64>) = (0, None);
    if decode == Decode::Bool {
        return (0, Some(1));
    }
    let l = &cols[plan.lhs_field];
    let (rmin, rmax) = match &plan.rhs {
        CompRhs::Lit(n) => (*n, Some(*n)),
        CompRhs::Field(f) => (cols[*f].min_value, cols[*f].max_value),
    };
    match plan.op {
        AluOp::Add => match (l.max_value, rmax) {
            (Some(a), Some(b)) => match a.checked_add(b) {
                // min <= max on both sides, so the minima sum too.
                Some(hi) => (l.min_value + rmin, Some(hi)),
                None => NO_BOUND,
            },
            _ => NO_BOUND,
        },
        AluOp::Sub => {
            if let CompRhs::Field(f) = &plan.rhs {
                if let (Some((ls, lc)), Some((rs, rc))) = (l.origin, cols[*f].origin) {
                    if ls == rs {
                        return same_scan_sub_bounds(&prepared[ls], lc, rc);
                    }
                }
            }
            match rmax {
                // No row can underflow: the smallest minuend still
                // covers the largest subtrahend.
                Some(rm) if l.min_value >= rm => {
                    (l.min_value - rm, l.max_value.map(|m| m - rmin))
                }
                _ => NO_BOUND,
            }
        }
        _ => NO_BOUND,
    }
}

/// Exact bounds of `lhs - rhs` over two row-aligned columns of one
/// prepared scan, degrading to "no bound" as soon as any row would
/// underflow (the engine would wrap it past 2^63).
fn same_scan_sub_bounds(scan: &PreparedScan, lc: usize, rc: usize) -> (u64, Option<u64>) {
    let (lv, rv) = (&scan.cols[lc].vals, &scan.cols[rc].vals);
    if lv.is_empty() {
        return (0, Some(0));
    }
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for (&a, &b) in lv.iter().zip(rv) {
        let Some(d) = a.checked_sub(b) else { return (0, None) };
        lo = lo.min(d);
        hi = hi.max(d);
    }
    (lo, Some(hi))
}

#[allow(clippy::too_many_lines)]
fn build_project(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    s: Stream,
    items: &[SelectItem],
) -> Result<Stream, CoreError> {
    // Expand items following the software engine's naming rules.
    let mut expanded: Vec<ProjItem> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        match item {
            SelectItem::Star => {
                for (src, c) in s.cols.iter().enumerate() {
                    expanded.push(ProjItem::Pass { src, name: c.name.clone() });
                }
            }
            SelectItem::Expr { expr, alias } => match expr {
                Expr::Col(c) => {
                    let src = resolve(&s.cols, c, "Project")?;
                    let name = alias.clone().unwrap_or_else(|| c.display_name());
                    expanded.push(ProjItem::Pass { src, name });
                }
                Expr::Bin { op, lhs, rhs } => {
                    let (Some(lo), Some(ro)) =
                        (operand(&s.cols, lhs)?, operand(&s.cols, rhs)?)
                    else {
                        return Err(CoreError::unsupported(
                            "Project",
                            "computed items must be a single binary op over columns/literals",
                        ));
                    };
                    let (plan, decode) = plan_comp(*op, &lo, &ro)?;
                    let name = alias.clone().unwrap_or_else(|| format!("EXPR{i}"));
                    expanded.push(ProjItem::Comp { plan, name, decode });
                }
                _ => {
                    return Err(CoreError::unsupported(
                        "Project",
                        "items must be columns or binary expressions",
                    ))
                }
            },
            SelectItem::Agg { .. } => {
                return Err(CoreError::unsupported(
                    "Project",
                    "aggregate outside an Aggregate node",
                ))
            }
        }
    }
    let n_out = expanded.len();
    if n_out == 0 || n_out > MAX_FIELDS {
        return Err(CoreError::unsupported(
            "Project",
            format!("{n_out} output columns (hardware flits carry 1..={MAX_FIELDS} fields)"),
        ));
    }
    let prepared = ctx.prepared;
    let out_cols: Vec<ColInfo> = expanded
        .iter()
        .map(|item| match item {
            ProjItem::Pass { src, name } => ColInfo { name: name.clone(), ..s.cols[*src].clone() },
            ProjItem::Comp { plan, name, decode } => {
                let (min_value, max_value) = comp_bounds(&s.cols, prepared, plan, *decode);
                ColInfo {
                    name: name.clone(),
                    decode: *decode,
                    nullable: false,
                    ascending: false,
                    max_value,
                    min_value,
                    origin: None,
                }
            }
        })
        .collect();
    let pass_srcs: Vec<usize> = expanded
        .iter()
        .filter_map(|it| match it {
            ProjItem::Pass { src, .. } => Some(*src),
            ProjItem::Comp { .. } => None,
        })
        .collect();
    let comps: Vec<&CompPlan> = expanded
        .iter()
        .filter_map(|it| match it {
            ProjItem::Comp { plan, .. } => Some(plan),
            ProjItem::Pass { .. } => None,
        })
        .collect();

    if comps.is_empty() {
        // Pure column selection/reorder: a single Zip (or a rename).
        let identity =
            pass_srcs.len() == s.cols.len() && pass_srcs.iter().enumerate().all(|(i, &v)| i == v);
        let q = if identity {
            s.q
        } else {
            let out = b.queue(&ctx.lbl("proj"));
            let label = ctx.lbl("proj.zip");
            b.system()
                .add_module(Box::new(Zip::new(&label, vec![ZipInput::new(s.q, pass_srcs)], out)));
            out
        };
        ctx.note(format!("Project -> {}", if identity { "rename" } else { "Zip" }));
        return Ok(Stream { q, cols: out_cols });
    }

    // Computed items: fan the row stream out to a pass-through branch plus
    // per-computation extractor branches, run each ALU chain, and zip the
    // results back into rows.
    let mut fan_targets = Vec::new();
    let pass_q = if pass_srcs.is_empty() {
        None
    } else {
        let q = b.queue(&ctx.lbl("proj.pass"));
        fan_targets.push(q);
        Some(q)
    };
    struct Branch {
        lhs_q: QueueId,
        rhs_q: Option<QueueId>,
    }
    let mut branches = Vec::with_capacity(comps.len());
    for comp in &comps {
        let lhs_q = b.queue(&ctx.lbl("proj.b"));
        fan_targets.push(lhs_q);
        let rhs_q = match comp.rhs {
            CompRhs::Field(_) => {
                let q = b.queue(&ctx.lbl("proj.b"));
                fan_targets.push(q);
                Some(q)
            }
            CompRhs::Lit(_) => None,
        };
        branches.push(Branch { lhs_q, rhs_q });
    }
    let fan_label = ctx.lbl("proj.fan");
    b.system().add_module(Box::new(Fanout::new(&fan_label, s.q, fan_targets)));
    let mut res_qs = Vec::with_capacity(comps.len());
    let mut alu_count = 0usize;
    for (comp, branch) in comps.iter().zip(&branches) {
        let ext = b.queue(&ctx.lbl("proj.ext"));
        let zl = ctx.lbl("proj.extzip");
        b.system().add_module(Box::new(Zip::new(
            &zl,
            vec![ZipInput::new(branch.lhs_q, vec![comp.lhs_field])],
            ext,
        )));
        let rhs = match (&comp.rhs, branch.rhs_q) {
            (CompRhs::Lit(n), _) => AluRhs::Const(*n),
            (CompRhs::Field(f), Some(rq)) => {
                let ext2 = b.queue(&ctx.lbl("proj.ext"));
                let zl2 = ctx.lbl("proj.extzip");
                b.system()
                    .add_module(Box::new(Zip::new(&zl2, vec![ZipInput::new(rq, vec![*f])], ext2)));
                AluRhs::Queue(ext2)
            }
            (CompRhs::Field(_), None) => {
                return Err(CoreError::Host("projection branch wiring bug".into()))
            }
        };
        let alu_out = b.queue(&ctx.lbl("proj.alu"));
        let al = ctx.lbl("proj.alu");
        b.system().add_module(Box::new(StreamAlu::new(&al, comp.op, ext, rhs, alu_out)));
        alu_count += 1;
        let res = if comp.negate {
            let neg = b.queue(&ctx.lbl("proj.neg"));
            let nl = ctx.lbl("proj.neg");
            b.system().add_module(Box::new(StreamAlu::new(
                &nl,
                AluOp::Xor,
                alu_out,
                AluRhs::Const(1),
                neg,
            )));
            alu_count += 1;
            neg
        } else {
            alu_out
        };
        res_qs.push(res);
    }
    // Zip pass fields and computed results back together (pass block
    // first), then reorder into item order when they interleave.
    let mut zip_inputs = Vec::new();
    if let Some(pq) = pass_q {
        zip_inputs.push(ZipInput::new(pq, pass_srcs.clone()));
    }
    for &rq in &res_qs {
        zip_inputs.push(ZipInput::new(rq, vec![0]));
    }
    let assembled = b.queue(&ctx.lbl("proj.rows"));
    let zl = ctx.lbl("proj.zip");
    b.system().add_module(Box::new(Zip::new(&zl, zip_inputs, assembled)));
    let mut pass_rank = 0;
    let mut comp_rank = 0;
    let n_pass = pass_srcs.len();
    let sel: Vec<usize> = expanded
        .iter()
        .map(|it| match it {
            ProjItem::Pass { .. } => {
                pass_rank += 1;
                pass_rank - 1
            }
            ProjItem::Comp { .. } => {
                comp_rank += 1;
                n_pass + comp_rank - 1
            }
        })
        .collect();
    let q = if sel.iter().enumerate().all(|(i, &v)| i == v) {
        assembled
    } else {
        let reordered = b.queue(&ctx.lbl("proj.ord"));
        let rl = ctx.lbl("proj.ordzip");
        b.system()
            .add_module(Box::new(Zip::new(&rl, vec![ZipInput::new(assembled, sel)], reordered)));
        reordered
    };
    ctx.note(format!(
        "Project -> Fanout + {}x Zip + {alu_count}x ALU",
        1 + comps.len() + branches.iter().filter(|br| br.rhs_q.is_some()).count()
    ));
    Ok(Stream { q, cols: out_cols })
}

fn build_join(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    kind: JoinKind,
    l: Stream,
    r: Stream,
    left_key: &ColRef,
    right_key: &ColRef,
) -> Result<Stream, CoreError> {
    let hw_kind = match kind {
        JoinKind::Inner => HwJoinKind::Inner,
        JoinKind::Left => HwJoinKind::Left,
        JoinKind::Outer => {
            return Err(CoreError::unsupported(
                "Join(Outer)",
                "unmatched-right row order is engine-defined",
            ))
        }
    };
    let li = resolve(&l.cols, left_key, "Join")?;
    let ri = resolve(&r.cols, right_key, "Join")?;
    for (side, col) in [("left", &l.cols[li]), ("right", &r.cols[ri])] {
        if col.decode != Decode::U64 || col.nullable {
            return Err(CoreError::unsupported(
                "Join",
                format!("{side} key {} must be a non-nullable integer column", col.name),
            ));
        }
        if !col.ascending {
            return Err(CoreError::unsupported(
                "Join",
                format!(
                    "{side} key {} is not strictly increasing; the hardware Joiner \
                     merge-joins sorted unique keys",
                    col.name
                ),
            ));
        }
    }
    let (nl, nr) = (l.cols.len(), r.cols.len());
    let width = 1 + nl + nr;
    if width > MAX_FIELDS {
        return Err(CoreError::unsupported(
            "Join",
            format!("key + {nl} left + {nr} right fields exceed the {MAX_FIELDS}-field flit"),
        ));
    }
    // Prepend the key to each side: [key, all columns...].
    let keyed = |b: &mut PipelineBuilder<'_>, ctx: &mut BuildCtx<'_>, s: &Stream, ki: usize| {
        let mut sel = vec![ki];
        sel.extend(0..s.cols.len());
        let out = b.queue(&ctx.lbl("join.keyed"));
        let label = ctx.lbl("join.keyzip");
        b.system().add_module(Box::new(Zip::new(&label, vec![ZipInput::new(s.q, sel)], out)));
        out
    };
    let lq = keyed(b, ctx, &l, li);
    let rq = keyed(b, ctx, &r, ri);
    let jq = b.queue(&ctx.lbl("join.out"));
    let jl = ctx.lbl("join");
    b.system().add_module(Box::new(Joiner::new(&jl, hw_kind, lq, rq, jq, nl, nr)));
    // Drop the prepended key, leaving [left columns..., right columns...].
    let out = b.queue(&ctx.lbl("join.rows"));
    let dl = ctx.lbl("join.dropzip");
    b.system()
        .add_module(Box::new(Zip::new(&dl, vec![ZipInput::new(jq, (1..width).collect())], out)));
    let left_join = kind == JoinKind::Left;
    let mut cols = Vec::with_capacity(nl + nr);
    for c in &l.cols {
        cols.push(ColInfo { name: qualify(left_key.table.as_deref(), &c.name), ..c.clone() });
    }
    for c in &r.cols {
        cols.push(ColInfo {
            name: qualify(right_key.table.as_deref(), &c.name),
            nullable: c.nullable || left_join,
            ascending: false,
            ..c.clone()
        });
    }
    ctx.note(format!("Join({kind:?}) -> 2x Zip + Joiner + Zip"));
    Ok(Stream { q: out, cols })
}

fn agg_display(func: AggFn) -> &'static str {
    match func {
        AggFn::Sum => "SUM",
        AggFn::Count => "COUNT",
        AggFn::Min => "MIN",
        AggFn::Max => "MAX",
    }
}

fn build_scalar_agg(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    input: &LogicalPlan,
    items: &[SelectItem],
) -> Result<Built, CoreError> {
    let s = build_node(b, ctx, input)?;
    struct Spec {
        kind: ScalarKind,
        field: usize,
        filter_markers: bool,
        name: String,
    }
    let mut specs = Vec::new();
    for item in items {
        let SelectItem::Agg { func, arg, alias } = item else {
            return Err(CoreError::unsupported(
                "Aggregate",
                "non-aggregate select item without GROUP BY",
            ));
        };
        let name = alias.clone().unwrap_or_else(|| agg_display(*func).to_owned());
        let spec = match (func, arg) {
            // COUNT(*) / SUM(*) both count rows (the engine sums 1 per row).
            (AggFn::Count | AggFn::Sum, None) => {
                Spec { kind: ScalarKind::Count, field: 0, filter_markers: false, name }
            }
            (AggFn::Min | AggFn::Max, None) => {
                return Err(CoreError::unsupported(
                    "Aggregate",
                    "MIN/MAX need a column argument",
                ))
            }
            (_, Some(Expr::Col(c))) => {
                let i = resolve(&s.cols, c, "Aggregate")?;
                let col = &s.cols[i];
                match func {
                    AggFn::Count => {
                        Spec { kind: ScalarKind::Count, field: i, filter_markers: false, name }
                    }
                    AggFn::Sum => {
                        // U64 and Bool columns both sum (booleans as 0/1);
                        // the Reducer skips sentinel fields like the engine.
                        Spec { kind: ScalarKind::Sum, field: i, filter_markers: false, name }
                    }
                    AggFn::Min | AggFn::Max => {
                        if col.decode != Decode::U64 {
                            return Err(CoreError::unsupported(
                                "Aggregate",
                                format!(
                                    "MIN/MAX over BOOL column {} (the engine yields NULL)",
                                    col.name
                                ),
                            ));
                        }
                        let kind = if *func == AggFn::Min { ScalarKind::Min } else { ScalarKind::Max };
                        Spec { kind, field: i, filter_markers: col.nullable, name }
                    }
                }
            }
            (_, Some(_)) => {
                return Err(CoreError::unsupported(
                    "Aggregate",
                    "aggregate arguments must be plain columns",
                ))
            }
        };
        specs.push(spec);
    }
    if specs.is_empty() {
        return Err(CoreError::unsupported("Aggregate", "no aggregate items"));
    }
    // One reduction branch per aggregate.
    let branch_qs: Vec<QueueId> = if specs.len() == 1 {
        vec![s.q]
    } else {
        let qs: Vec<QueueId> = (0..specs.len()).map(|_| b.queue(&ctx.lbl("agg.b"))).collect();
        let fl = ctx.lbl("agg.fan");
        b.system().add_module(Box::new(Fanout::new(&fl, s.q, qs.clone())));
        qs
    };
    let mut parts = Vec::with_capacity(specs.len());
    let mut cols = Vec::with_capacity(specs.len());
    for (spec, &bq) in specs.iter().zip(&branch_qs) {
        let src = if spec.filter_markers {
            let fq = b.queue(&ctx.lbl("agg.isval"));
            let fl = ctx.lbl("agg.isval");
            b.system().add_module(Box::new(Filter::new(
                &fl,
                Predicate::field_is_value(spec.field),
                bq,
                fq,
            )));
            fq
        } else {
            bq
        };
        let op = match spec.kind {
            ScalarKind::Count => ReduceOp::Count,
            ScalarKind::Sum => ReduceOp::Sum,
            ScalarKind::Min => ReduceOp::Min,
            ScalarKind::Max => ReduceOp::Max,
        };
        let rq = b.queue(&ctx.lbl("agg.red"));
        let rl = ctx.lbl("agg.red");
        b.system().add_module(Box::new(Reducer::new(&rl, op, spec.field, src, rq)));
        // Scalar writers move one element per whole input stream; they are
        // not sustained memory ports, so they stay out of the cost profile.
        let (writer, addr) = b.writer(&ctx.lbl("agg.out"), rq, 8, 8);
        ctx.sink_bytes += line_padded(8);
        parts.push((spec.kind, writer, addr));
        cols.push(ColInfo {
            name: spec.name.clone(),
            decode: Decode::U64,
            nullable: false,
            ascending: false,
            max_value: None,
            min_value: 0,
            origin: None,
        });
    }
    ctx.note(format!("Aggregate -> {}x Reducer + MemoryWriter", specs.len()));
    Ok(Built { sink: Sink::Scalar { parts }, cols })
}

#[allow(clippy::too_many_lines)]
fn build_grouped_agg(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    input: &LogicalPlan,
    items: &[SelectItem],
    group_by: &[ColRef],
) -> Result<Built, CoreError> {
    let s = build_node(b, ctx, input)?;
    let [key] = group_by else {
        return Err(CoreError::unsupported(
            "Aggregate(GROUP BY)",
            "multi-column grouping needs a composite-key scratchpad",
        ));
    };
    let ki = resolve(&s.cols, key, "Aggregate")?;
    let kcol = s.cols[ki].clone();
    if kcol.nullable {
        return Err(CoreError::unsupported(
            "Aggregate(GROUP BY)",
            format!("nullable group key {} (padding markers form their own group)", kcol.name),
        ));
    }
    let Some(max_key) = kcol.max_value.or(Some(0).filter(|_| kcol.decode == Decode::Bool)) else {
        return Err(CoreError::unsupported(
            "Aggregate(GROUP BY)",
            format!("group key {} has no derivable domain bound", kcol.name),
        ))
    };
    if max_key >= ctx.group_domain_cap {
        let cap = ctx.group_domain_cap;
        let hint = if cap == MAX_GROUP_DOMAIN {
            " (enable tiered memory via GENESIS_TIERS to spill larger histograms)"
        } else {
            ""
        };
        // `max_key` can itself be `u64::MAX` (a key column holding it),
        // so even the human-readable domain size must not add 1 unchecked.
        return Err(CoreError::unsupported(
            "Aggregate(GROUP BY)",
            format!(
                "key domain {} exceeds the {cap}-entry scratchpad budget{hint}",
                max_key.saturating_add(1)
            ),
        ));
    }
    // Guarded above: `max_key < cap <= 2^27`, so `+ 1` cannot overflow.
    let domain = (max_key + 1) as usize;
    // Classify items; SUM columns share one histogram per distinct column.
    let mut sum_fields: Vec<usize> = Vec::new();
    struct GItem {
        role: GroupRole,
        /// Index into `sum_fields` for Sum items.
        sum_slot: usize,
        name: String,
    }
    let mut gitems = Vec::new();
    for item in items {
        let gi = match item {
            SelectItem::Expr { expr: Expr::Col(c), alias } => {
                if !group_by.contains(c) {
                    return Err(CoreError::unsupported(
                        "Aggregate(GROUP BY)",
                        format!("column {} not in GROUP BY", c.display_name()),
                    ));
                }
                let name = alias.clone().unwrap_or_else(|| c.display_name());
                GItem { role: GroupRole::Key, sum_slot: 0, name }
            }
            SelectItem::Agg { func, arg, alias } => {
                let name = alias.clone().unwrap_or_else(|| agg_display(*func).to_owned());
                match (func, arg) {
                    (AggFn::Count, _) | (AggFn::Sum, None) => {
                        GItem { role: GroupRole::Count, sum_slot: 0, name }
                    }
                    (AggFn::Sum, Some(Expr::Col(c))) => {
                        let i = resolve(&s.cols, c, "Aggregate")?;
                        let slot = sum_fields.iter().position(|&f| f == i).unwrap_or_else(|| {
                            sum_fields.push(i);
                            sum_fields.len() - 1
                        });
                        GItem { role: GroupRole::Sum, sum_slot: slot, name }
                    }
                    (AggFn::Min | AggFn::Max, _) => {
                        return Err(CoreError::unsupported(
                            "Aggregate(GROUP BY)",
                            "grouped MIN/MAX needs a read-modify-write min/max scratchpad op",
                        ))
                    }
                    (AggFn::Sum, Some(_)) => {
                        return Err(CoreError::unsupported(
                            "Aggregate(GROUP BY)",
                            "SUM arguments must be plain columns",
                        ))
                    }
                }
            }
            _ => {
                return Err(CoreError::unsupported(
                    "Aggregate(GROUP BY)",
                    "items must be the group key or aggregates",
                ))
            }
        };
        gitems.push(gi);
    }
    if gitems.is_empty() || gitems.len() > MAX_FIELDS {
        return Err(CoreError::unsupported(
            "Aggregate(GROUP BY)",
            format!("{} output columns (hardware flits carry 1..={MAX_FIELDS})", gitems.len()),
        ));
    }
    if 1 + sum_fields.len() > MAX_FIELDS {
        return Err(CoreError::unsupported(
            "Aggregate(GROUP BY)",
            "too many distinct SUM columns for one update flit",
        ));
    }
    // Update flit: [key, sum values...]; one RMW updater per histogram.
    let mut sel = vec![ki];
    sel.extend(sum_fields.iter().copied());
    let upd_q = b.queue(&ctx.lbl("grp.upd"));
    let zl = ctx.lbl("grp.keyzip");
    b.system().add_module(Box::new(Zip::new(&zl, vec![ZipInput::new(s.q, sel)], upd_q)));
    let cnt_spm = b.system().spms_mut().add(&ctx.lbl("GRP_CNT"), domain, 8);
    let sum_spms: Vec<_> = (0..sum_fields.len())
        .map(|_| {
            let label = ctx.lbl("GRP_SUM");
            b.system().spms_mut().add(&label, domain, 8)
        })
        .collect();
    let mut chain_in = upd_q;
    let mut tap = b.queue(&ctx.lbl("grp.fwd"));
    let cl = ctx.lbl("grp.count");
    b.system().add_module(Box::new(
        SpmUpdater::new(&cl, cnt_spm, SpmUpdateMode::Rmw { op: RmwOp::Increment }, 0, 0, chain_in)
            .with_forward(tap),
    ));
    chain_in = tap;
    for (slot, &spm) in sum_spms.iter().enumerate() {
        let next = b.queue(&ctx.lbl("grp.fwd"));
        let ul = ctx.lbl("grp.sum");
        b.system().add_module(Box::new(
            SpmUpdater::new(
                &ul,
                spm,
                SpmUpdateMode::Rmw { op: RmwOp::Add },
                0,
                1 + slot,
                chain_in,
            )
            .with_forward(next),
        ));
        chain_in = next;
        tap = next;
    }
    // Drain all histograms once updates finish: [key, count, sums...].
    let mut spms = vec![cnt_spm];
    spms.extend(sum_spms.iter().copied());
    let drain = b.queue(&ctx.lbl("grp.drain"));
    let dl = ctx.lbl("grp.drain");
    b.system().add_module(Box::new(SpmReader::new(
        &dl,
        spms,
        SpmReadMode::Drain { trigger: tap, len: domain as u64 },
        0,
        drain,
    )));
    // Keep only keys that appeared (the engine emits no empty groups).
    let present = b.queue(&ctx.lbl("grp.present"));
    let pl = ctx.lbl("grp.present");
    b.system().add_module(Box::new(Filter::new(
        &pl,
        Predicate::field_const(1, CmpOp::Ge, 1),
        drain,
        present,
    )));
    // Select drain fields in item order.
    let sel: Vec<usize> = gitems
        .iter()
        .map(|gi| match gi.role {
            GroupRole::Key => 0,
            GroupRole::Count => 1,
            GroupRole::Sum => 2 + gi.sum_slot,
        })
        .collect();
    let rows_q = b.queue(&ctx.lbl("grp.rows"));
    let sl = ctx.lbl("grp.selzip");
    b.system().add_module(Box::new(Zip::new(&sl, vec![ZipInput::new(present, sel)], rows_q)));
    let writers =
        attach_writers(b, ctx, rows_q, gitems.len(), domain * 8, "grp.out")?;
    for _ in &writers {
        ctx.writes.push(8);
    }
    let cols: Vec<ColInfo> = gitems
        .iter()
        .map(|gi| ColInfo {
            name: gi.name.clone(),
            decode: if gi.role == GroupRole::Key { kcol.decode } else { Decode::U64 },
            nullable: false,
            ascending: gi.role == GroupRole::Key,
            max_value: None,
            min_value: 0,
            origin: None,
        })
        .collect();
    ctx.note(format!(
        "Aggregate(GROUP BY) -> Zip + {}x SpmUpdater + SpmReader + Filter + Zip + {}x \
         MemoryWriter",
        1 + sum_fields.len(),
        writers.len()
    ));
    Ok(Built { sink: Sink::Grouped { writers }, cols })
}

/// Attaches one Memory Writer per output column (fanning the row stream
/// out when there is more than one — concurrent writers must not steal
/// flits from a shared queue).
fn attach_writers(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    rows_q: QueueId,
    n_cols: usize,
    capacity_bytes: usize,
    tag: &str,
) -> Result<Vec<(ModuleId, u64)>, CoreError> {
    ctx.sink_bytes += n_cols * line_padded(capacity_bytes);
    if n_cols == 1 {
        let (w, addr) = b.writer_with_field(&ctx.lbl(tag), rows_q, 8, capacity_bytes, 0);
        return Ok(vec![(w, addr)]);
    }
    let branch_qs: Vec<QueueId> = (0..n_cols).map(|_| b.queue(&ctx.lbl("out.b"))).collect();
    let fl = ctx.lbl("out.fan");
    b.system().add_module(Box::new(Fanout::new(&fl, rows_q, branch_qs.clone())));
    Ok(branch_qs
        .iter()
        .enumerate()
        .map(|(i, &q)| b.writer_with_field(&ctx.lbl(tag), q, 8, capacity_bytes, i))
        .collect())
}

fn build_stream_sink(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    s: Stream,
) -> Result<Built, CoreError> {
    // Explodes can emit more rows than the spine slice carries; the
    // writer allocation must cover the expanded bound.
    let bound = ctx.rows_bound.max(1) * 8;
    let writers = attach_writers(b, ctx, s.q, s.cols.len(), bound, "out")?;
    for _ in &writers {
        ctx.writes.push(8);
    }
    ctx.note(format!("Output -> {}x MemoryWriter", writers.len()));
    Ok(Built { sink: Sink::Stream { writers }, cols: s.cols })
}

/// Reads one writer's output column back from device memory, mapping each
/// raw 8-byte element through `f` on the way out.
fn read_writer<T>(
    sys: &System,
    id: ModuleId,
    addr: u64,
    f: impl Fn(u64) -> T,
) -> Result<Vec<T>, CoreError> {
    let w = sys
        .module_as::<MemWriter>(id)
        .ok_or_else(|| CoreError::Host("sink writer disappeared".into()))?;
    let n = w.elems_written() as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    let bytes = sys.host_read(addr, n * 8);
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f(u64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes"))))
        .collect())
}

fn decode_value(raw: u64, col: &ColInfo) -> Value {
    if col.nullable {
        match raw {
            MARKER_INS => return Value::Ins,
            MARKER_DEL => return Value::Del,
            _ => {}
        }
    }
    match col.decode {
        Decode::U64 => Value::U64(raw),
        Decode::Bool => Value::Bool(raw != 0),
    }
}

/// Fails unless every output column holds the same number of rows.
fn check_row_counts<T>(cols: &[Vec<T>], what: &str) -> Result<(), CoreError> {
    let n = cols.first().map_or(0, Vec::len);
    if cols.iter().any(|c| c.len() != n) {
        return Err(CoreError::Verification(format!(
            "{what} column writers disagree on row count"
        )));
    }
    Ok(())
}

fn extract_job(sys: &System, built: &Built) -> Result<(JobOut, Vec<ColInfo>), CoreError> {
    let out = match &built.sink {
        Sink::Stream { writers } => {
            let cols: Vec<Vec<Value>> = writers
                .iter()
                .zip(&built.cols)
                .map(|(&(id, addr), col)| read_writer(sys, id, addr, |raw| decode_value(raw, col)))
                .collect::<Result<_, _>>()?;
            check_row_counts(&cols, "output")?;
            JobOut::Cols(cols)
        }
        Sink::Scalar { parts } => {
            let mut vals = Vec::with_capacity(parts.len());
            for &(kind, id, addr) in parts {
                let col = read_writer(sys, id, addr, |raw| raw)?;
                vals.push((kind, col.first().copied()));
            }
            JobOut::Scalar(vals)
        }
        Sink::Grouped { writers } => {
            let raw: Vec<Vec<u64>> = writers
                .iter()
                .map(|&(id, addr)| read_writer(sys, id, addr, |raw| raw))
                .collect::<Result<_, _>>()?;
            check_row_counts(&raw, "grouped")?;
            JobOut::Grouped(raw)
        }
    };
    Ok((out, built.cols.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis_types::Column;

    fn table_u32(name: &str, cols: &[(&str, Vec<u32>)]) -> (String, Table) {
        let schema =
            Schema::new(cols.iter().map(|(n, _)| Field::new(n, DataType::U32)).collect());
        let columns = cols.iter().map(|(_, v)| Column::U32(v.clone())).collect();
        (name.to_owned(), Table::from_columns(schema, columns).unwrap())
    }

    fn catalog_with(tables: Vec<(String, Table)>) -> Catalog {
        let mut c = Catalog::new();
        for (n, t) in tables {
            c.register(&n, t);
        }
        c
    }

    fn run(plan: &LogicalPlan, catalog: &Catalog, factor: usize) -> Table {
        let cfg = DeviceConfig::small();
        let low = analyze(plan, catalog, &cfg).unwrap();
        low.execute(&cfg, catalog, factor).unwrap().0
    }

    fn software(plan: &LogicalPlan, catalog: &Catalog) -> Table {
        execute_plan(plan, catalog, &Env::default()).unwrap()
    }

    fn assert_tables_match(hw: &Table, sw: &Table) {
        let hw_names: Vec<&str> =
            hw.schema().fields().iter().map(|f| f.name.as_str()).collect();
        let sw_names: Vec<&str> =
            sw.schema().fields().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(hw_names, sw_names, "schema names differ");
        assert_eq!(hw.num_rows(), sw.num_rows(), "row count differs");
        for r in 0..hw.num_rows() {
            assert_eq!(hw.row(r), sw.row(r), "row {r} differs");
        }
    }

    fn scan(t: &str) -> LogicalPlan {
        LogicalPlan::Scan { table: t.to_owned(), partition: None }
    }

    #[test]
    fn filtered_scan_matches_software() {
        let catalog = catalog_with(vec![table_u32(
            "T",
            &[("X", (0..40).collect()), ("Y", (0..40).map(|v| v * 3).collect())],
        )]);
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("T")),
            pred: Expr::Bin {
                op: BinOp::Gt,
                lhs: Box::new(Expr::Col(ColRef::bare("Y"))),
                rhs: Box::new(Expr::Number(30)),
            },
        };
        assert_tables_match(&run(&plan, &catalog, 2), &software(&plan, &catalog));
    }

    #[test]
    fn computed_projection_matches_software() {
        let catalog = catalog_with(vec![table_u32(
            "T",
            &[("A", (0..25).collect()), ("B", (0..25).map(|v| v * 2 % 17).collect())],
        )]);
        let plan = LogicalPlan::Project {
            input: Box::new(scan("T")),
            items: vec![
                SelectItem::Expr {
                    expr: Expr::Bin {
                        op: BinOp::Add,
                        lhs: Box::new(Expr::Col(ColRef::bare("A"))),
                        rhs: Box::new(Expr::Col(ColRef::bare("B"))),
                    },
                    alias: Some("S".into()),
                },
                SelectItem::Expr { expr: Expr::Col(ColRef::bare("A")), alias: None },
                SelectItem::Expr {
                    expr: Expr::Bin {
                        op: BinOp::Le,
                        lhs: Box::new(Expr::Col(ColRef::bare("B"))),
                        rhs: Box::new(Expr::Number(9)),
                    },
                    alias: None,
                },
            ],
        };
        assert_tables_match(&run(&plan, &catalog, 2), &software(&plan, &catalog));
    }

    #[test]
    fn join_and_grouped_count_match_software() {
        let catalog = catalog_with(vec![
            table_u32("L", &[("K", (0..30).collect()), ("G", (0..30).map(|v| v % 5).collect())]),
            table_u32("R", &[("K", (0..30).step_by(2).collect()), ("W", (0..15).collect())]),
        ]);
        let join = LogicalPlan::Join {
            kind: JoinKind::Inner,
            left: Box::new(scan("L")),
            right: Box::new(scan("R")),
            left_key: ColRef::qualified("L", "K"),
            right_key: ColRef::qualified("R", "K"),
        };
        let plan = LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Aggregate {
                input: Box::new(join),
                items: vec![
                    SelectItem::Expr { expr: Expr::Col(ColRef::bare("G")), alias: None },
                    SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
                    SelectItem::Agg {
                        func: AggFn::Sum,
                        arg: Some(Expr::Col(ColRef::bare("W"))),
                        alias: Some("TW".into()),
                    },
                ],
                group_by: vec![ColRef::bare("G")],
            }),
            keys: vec![(ColRef::bare("G"), false)],
        };
        assert_tables_match(&run(&plan, &catalog, 3), &software(&plan, &catalog));
    }

    #[test]
    fn scalar_aggregates_match_software() {
        let catalog =
            catalog_with(vec![table_u32("T", &[("V", (5..45).map(|v| v * 7 % 31).collect())])]);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan("T")),
            items: vec![
                SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
                SelectItem::Agg {
                    func: AggFn::Sum,
                    arg: Some(Expr::Col(ColRef::bare("V"))),
                    alias: None,
                },
                SelectItem::Agg {
                    func: AggFn::Min,
                    arg: Some(Expr::Col(ColRef::bare("V"))),
                    alias: None,
                },
                SelectItem::Agg {
                    func: AggFn::Max,
                    arg: Some(Expr::Col(ColRef::bare("V"))),
                    alias: None,
                },
            ],
            group_by: vec![],
        };
        assert_tables_match(&run(&plan, &catalog, 4), &software(&plan, &catalog));
    }

    fn table_u64(name: &str, cols: &[(&str, Vec<u64>)]) -> (String, Table) {
        let schema =
            Schema::new(cols.iter().map(|(n, _)| Field::new(n, DataType::U64)).collect());
        let columns = cols.iter().map(|(_, v)| Column::U64(v.clone())).collect();
        (name.to_owned(), Table::from_columns(schema, columns).unwrap())
    }

    /// `Sort(Aggregate(Project(Scan)))`: COUNT grouped by the computed
    /// key `lhs op rhs`, the shape whose scratchpad domain the
    /// [`comp_bounds`] wrap proofs size.
    fn grouped_by_comp(op: BinOp, lhs: &str, rhs: &str) -> LogicalPlan {
        let agg = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(scan("T")),
                items: vec![SelectItem::Expr {
                    expr: Expr::Bin {
                        op,
                        lhs: Box::new(Expr::Col(ColRef::bare(lhs))),
                        rhs: Box::new(Expr::Col(ColRef::bare(rhs))),
                    },
                    alias: Some("D".into()),
                }],
            }),
            items: vec![
                SelectItem::Expr { expr: Expr::Col(ColRef::bare("D")), alias: None },
                SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
            ],
            group_by: vec![ColRef::bare("D")],
        };
        LogicalPlan::Sort { input: Box::new(agg), keys: vec![(ColRef::bare("D"), false)] }
    }

    #[test]
    fn sub_key_that_can_wrap_is_rejected() {
        // Row 1 has MPOS < POS: the engine's `wrapping_sub` produces a
        // ~2^64 key, so no dense scratchpad domain is derivable. The
        // pre-fix `comp_max` bounded the key by the minuend's max alone
        // and compiled a histogram the wrapped key escapes.
        let catalog = catalog_with(vec![table_u32(
            "T",
            &[("POS", vec![10, 50]), ("MPOS", vec![30, 20])],
        )]);
        let err =
            analyze(&grouped_by_comp(BinOp::Sub, "MPOS", "POS"), &catalog, &DeviceConfig::small())
                .unwrap_err();
        let CoreError::Unsupported { node, reason } = err else { panic!("{err}") };
        assert_eq!(node, "Aggregate(GROUP BY)");
        assert!(reason.contains("no derivable domain bound"), "got: {reason}");
    }

    #[test]
    fn sub_key_proven_per_row_compiles_despite_overlapping_ranges() {
        // Every row has MPOS >= POS, but the column *ranges* overlap
        // (min MPOS = 30 < max POS = 90): a range-only proof would
        // reject this valid mate-distance shape. The same-scan per-row
        // proof accepts it with the exact [5, 20] key domain.
        let catalog = catalog_with(vec![table_u32(
            "T",
            &[("POS", vec![10, 50, 90]), ("MPOS", vec![30, 55, 100])],
        )]);
        let plan = grouped_by_comp(BinOp::Sub, "MPOS", "POS");
        assert_tables_match(&run(&plan, &catalog, 2), &software(&plan, &catalog));
    }

    #[test]
    fn add_key_that_can_overflow_is_rejected() {
        // max(A) + max(B) overflows u64: the engine wraps
        // (`wrapping_add`), so the pre-fix saturated bound of u64::MAX
        // both lied about the domain and pushed the `max_key + 1`
        // arithmetic in the grouped lowering over the edge.
        let catalog = catalog_with(vec![table_u64(
            "T",
            &[("A", vec![u64::MAX - 10, 5]), ("B", vec![20, 3])],
        )]);
        let err =
            analyze(&grouped_by_comp(BinOp::Add, "A", "B"), &catalog, &DeviceConfig::small())
                .unwrap_err();
        let CoreError::Unsupported { node, reason } = err else { panic!("{err}") };
        assert_eq!(node, "Aggregate(GROUP BY)");
        assert!(reason.contains("no derivable domain bound"), "got: {reason}");
    }

    #[test]
    fn group_key_holding_u64_max_is_a_clean_unsupported() {
        // A key column containing u64::MAX exceeds any scratchpad budget;
        // the rejection must format the domain size without computing
        // `max_key + 1` (debug overflow pre-fix).
        let catalog = catalog_with(vec![table_u64("T", &[("K", vec![0, u64::MAX])])]);
        let agg = LogicalPlan::Aggregate {
            input: Box::new(scan("T")),
            items: vec![
                SelectItem::Expr { expr: Expr::Col(ColRef::bare("K")), alias: None },
                SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
            ],
            group_by: vec![ColRef::bare("K")],
        };
        let plan =
            LogicalPlan::Sort { input: Box::new(agg), keys: vec![(ColRef::bare("K"), false)] };
        let err = analyze(&plan, &catalog, &DeviceConfig::small()).unwrap_err();
        let CoreError::Unsupported { node, reason } = err else { panic!("{err}") };
        assert_eq!(node, "Aggregate(GROUP BY)");
        assert!(reason.contains("scratchpad budget"), "got: {reason}");
    }

    fn filter_lt(input: LogicalPlan, col: &str, lit: u64) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(input),
            pred: Expr::Bin {
                op: BinOp::Lt,
                lhs: Box::new(Expr::Col(ColRef::bare(col))),
                rhs: Box::new(Expr::Number(lit)),
            },
        }
    }

    #[test]
    fn pushdown_drops_rows_at_the_scan() {
        let catalog = catalog_with(vec![table_u32(
            "T",
            &[("X", (0..100).collect()), ("Y", (0..100).map(|v| v * 7 % 101).collect())],
        )]);
        let plan = filter_lt(scan("T"), "X", 10);
        let cfg = DeviceConfig::small();
        let low = analyze(&plan, &catalog, &cfg).unwrap();
        assert_eq!(low.pushed.len(), 1, "the conjunct must be absorbed into the scan");
        assert!((low.profile.selectivity - 0.1).abs() < 1e-9);
        assert!(
            low.summary.iter().any(|s| s.contains("Pushdown(Scan(T))")),
            "explain must note the pushed conjunct: {:?}",
            low.summary
        );
        let (hw, stats) = low.execute(&cfg, &catalog, 2).unwrap();
        assert_eq!(stats.rows_scanned, 100);
        assert_eq!(stats.rows_emitted, 10);
        assert_tables_match(&hw, &software(&plan, &catalog));

        // Pushdown off: same bytes out, full table scanned and emitted.
        let cfg_off = DeviceConfig::small().with_pushdown(false);
        let low_off = analyze(&plan, &catalog, &cfg_off).unwrap();
        assert!(low_off.pushed.is_empty());
        assert!((low_off.profile.selectivity - 1.0).abs() < 1e-9);
        let (hw_off, stats_off) = low_off.execute(&cfg_off, &catalog, 2).unwrap();
        assert_eq!(stats_off.rows_scanned, 100);
        assert_eq!(stats_off.rows_emitted, 100);
        assert_tables_match(&hw, &hw_off);
    }

    #[test]
    fn pushdown_that_drops_every_row_yields_empty_output() {
        let catalog = catalog_with(vec![table_u32("T", &[("X", (0..50).collect())])]);
        let plan = filter_lt(scan("T"), "X", 0); // vacuously false
        let cfg = DeviceConfig::small();
        let low = analyze(&plan, &catalog, &cfg).unwrap();
        let (hw, stats) = low.execute(&cfg, &catalog, 1).unwrap();
        assert_eq!(stats.rows_scanned, 50);
        assert_eq!(stats.rows_emitted, 0);
        assert_tables_match(&hw, &software(&plan, &catalog));
    }

    #[test]
    fn filter_above_projection_is_not_pushed() {
        // Only a Filter *directly* above a plain Scan is absorbed; this
        // one sits above a Project and must stay a Filter module.
        let catalog = catalog_with(vec![table_u32("T", &[("X", (0..40).collect())])]);
        let projected = LogicalPlan::Project {
            input: Box::new(scan("T")),
            items: vec![SelectItem::Expr { expr: Expr::Col(ColRef::bare("X")), alias: None }],
        };
        let plan = filter_lt(projected, "X", 8);
        let cfg = DeviceConfig::small();
        let low = analyze(&plan, &catalog, &cfg).unwrap();
        assert!(low.pushed.is_empty());
        let (hw, stats) = low.execute(&cfg, &catalog, 2).unwrap();
        assert_eq!(stats.rows_scanned, stats.rows_emitted);
        assert_tables_match(&hw, &software(&plan, &catalog));
    }

    #[test]
    fn shards_split_survivors_and_attribute_scanned_rows_exactly() {
        // A skewed predicate keeps only the tail 20 of 100 rows: shard
        // ranges must split the 20 *survivors* evenly, and the per-shard
        // scanned-row attribution must sum to the full 100.
        let catalog = catalog_with(vec![table_u32("T", &[("X", (0..100).collect())])]);
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("T")),
            pred: Expr::Bin {
                op: BinOp::Ge,
                lhs: Box::new(Expr::Col(ColRef::bare("X"))),
                rhs: Box::new(Expr::Number(80)),
            },
        };
        let cfg = DeviceConfig::small();
        let low = analyze(&plan, &catalog, &cfg).unwrap();
        let job = low.prepare(&cfg, &catalog, 1).unwrap();
        let ranges = job.shard_ranges(4);
        assert_eq!(ranges.len(), 4);
        assert!(ranges.iter().all(|r| r.len() == 5), "survivor split skewed: {ranges:?}");
        let spine = &job.prepared[0];
        let scanned: usize = ranges.iter().map(|r| spine.scanned_rows(r)).sum();
        assert_eq!(scanned, 100);
    }

    #[test]
    fn unsupported_diagnostics_name_the_node() {
        let catalog = catalog_with(vec![table_u32("T", &[("X", vec![1, 2, 3])])]);
        let cfg = DeviceConfig::small();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan("T")),
            items: vec![
                SelectItem::Expr { expr: Expr::Col(ColRef::bare("X")), alias: None },
                SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
            ],
            group_by: vec![ColRef::bare("X")],
        };
        // Grouped aggregate without ORDER BY on the key: order undefined.
        let err = analyze(&plan, &catalog, &cfg).unwrap_err();
        let CoreError::Unsupported { node, reason } = err else { panic!("{err}") };
        assert_eq!(node, "Aggregate(GROUP BY)");
        assert!(reason.contains("ORDER BY"));
    }

    #[test]
    fn unknown_column_is_a_plan_error_with_suggestion() {
        let catalog = catalog_with(vec![table_u32("T", &[("QUAL", vec![1, 2, 3])])]);
        let plan = LogicalPlan::Project {
            input: Box::new(scan("T")),
            items: vec![SelectItem::Expr {
                expr: Expr::Col(ColRef::bare("QAUL")),
                alias: None,
            }],
        };
        // A typo'd column is the *user's* plan being wrong, not a lowering
        // gap: it must classify as Plan (was: Unsupported) and point at
        // the close name.
        let err = analyze(&plan, &catalog, &DeviceConfig::small()).unwrap_err();
        let CoreError::Plan { node, reason } = err else { panic!("{err}") };
        assert_eq!(node, "Project");
        assert!(reason.contains("unknown column QAUL"), "got: {reason}");
        assert!(reason.contains("did you mean `QUAL`"), "got: {reason}");
    }

    #[test]
    fn ambiguous_column_is_a_plan_error_listing_matches() {
        let catalog = catalog_with(vec![
            table_u32("T", &[("K", vec![1, 2]), ("X", vec![10, 20])]),
            table_u32("U", &[("K", vec![1, 2]), ("X", vec![30, 40])]),
        ]);
        // After the join both sides expose an `X`; a bare reference must
        // name the candidates rather than claim the shape is unsupported.
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Join {
                kind: JoinKind::Inner,
                left: Box::new(scan("T")),
                right: Box::new(scan("U")),
                left_key: ColRef::qualified("T", "K"),
                right_key: ColRef::qualified("U", "K"),
            }),
            items: vec![SelectItem::Expr {
                expr: Expr::Col(ColRef::bare("X")),
                alias: None,
            }],
        };
        let err = analyze(&plan, &catalog, &DeviceConfig::small()).unwrap_err();
        let CoreError::Plan { reason, .. } = err else { panic!("{err}") };
        assert!(reason.contains("ambiguous column X"), "got: {reason}");
        assert!(reason.contains("T.X") && reason.contains("U.X"), "got: {reason}");
        assert!(reason.contains("qualify"), "got: {reason}");
    }

    #[test]
    fn unknown_table_is_a_plan_error_with_suggestion() {
        let catalog = catalog_with(vec![table_u32("READS", &[("X", vec![1])])]);
        let plan = LogicalPlan::Project {
            input: Box::new(scan("REDAS")),
            items: vec![SelectItem::Expr {
                expr: Expr::Col(ColRef::bare("X")),
                alias: None,
            }],
        };
        let cfg = DeviceConfig::small();
        let low = analyze(&plan, &catalog, &cfg);
        // Scan columns come from the catalog at analysis time, so the typo
        // surfaces there or at execute depending on the path — either way
        // it must be a Plan error suggesting the close table name.
        let err = match low {
            Err(e) => e,
            Ok(low) => low.execute(&cfg, &catalog, 1).unwrap_err(),
        };
        let CoreError::Plan { node, reason } = err else { panic!("{err}") };
        assert_eq!(node, "Scan(REDAS)");
        assert!(reason.contains("unknown table"), "got: {reason}");
        assert!(reason.contains("did you mean `READS`"), "got: {reason}");
    }

    // ---- bind-path diagnostics, pinned byte for byte ----

    fn table_of(cols: Vec<(&str, Column)>) -> Table {
        let schema =
            Schema::new(cols.iter().map(|(n, c)| Field::new(n, c.dtype())).collect());
        Table::from_columns(schema, cols.into_iter().map(|(_, c)| c).collect()).unwrap()
    }

    fn catalog_of(name: &str, cols: Vec<(&str, Column)>) -> Catalog {
        catalog_with(vec![(name.to_owned(), table_of(cols))])
    }

    /// The `(node, reason)` of the `Unsupported` that analyzing `plan`
    /// against `catalog` yields.
    fn unsupported(plan: &LogicalPlan, catalog: &Catalog) -> (String, String) {
        match analyze(plan, catalog, &DeviceConfig::small()).unwrap_err() {
            CoreError::Unsupported { node, reason } => (node, reason),
            other => panic!("expected Unsupported, got {other}"),
        }
    }

    fn pair(node: &str, reason: &str) -> (String, String) {
        (node.to_owned(), reason.to_owned())
    }

    #[test]
    fn scan_wider_than_a_flit_is_rejected() {
        let cols: Vec<(String, Column)> =
            (0..=MAX_FIELDS).map(|i| (format!("C{i}"), Column::U8(vec![1]))).collect();
        let catalog =
            catalog_of("T", cols.iter().map(|(n, c)| (n.as_str(), c.clone())).collect());
        assert_eq!(
            unsupported(&scan("T"), &catalog),
            pair("Scan(T)", "9 columns exceed the 8-field flit width")
        );
    }

    #[test]
    fn string_and_list_columns_do_not_stream_under_a_plain_scan() {
        let catalog = catalog_of("T", vec![("NAME", Column::Str(vec!["r1".into()]))]);
        assert_eq!(
            unsupported(&scan("T"), &catalog),
            pair(
                "Scan(T)",
                "column NAME has type Str; only fixed-width numeric/boolean \
                 columns stream through Memory Readers"
            )
        );
        let catalog = catalog_of(
            "T",
            vec![("X", Column::U8(vec![1])), ("SEQ", Column::ListU8(vec![vec![0, 1]]))],
        );
        assert_eq!(
            unsupported(&scan("T"), &catalog),
            pair(
                "Scan(T)",
                "column SEQ has type ListU8; only fixed-width numeric/boolean \
                 columns stream through Memory Readers"
            )
        );
    }

    #[test]
    fn cell_columns_must_be_uniformly_numeric_or_boolean() {
        let reason = "dynamically-typed column C holds non-uniform or non-numeric cells";
        for cells in [
            vec![Value::U64(1), Value::Bool(true)],
            vec![Value::U64(1), Value::Null],
            vec![Value::Ins],
            vec![Value::List(vec![Value::U64(1)])],
        ] {
            let catalog = catalog_of("T", vec![("C", Column::Cell(cells))]);
            assert_eq!(unsupported(&scan("T"), &catalog), pair("Scan(T)", reason));
        }
        // Uniform cells scan like their typed counterparts.
        for cells in [
            vec![Value::U64(7), Value::U64(u64::MAX)],
            vec![Value::Bool(true), Value::Bool(false)],
            vec![],
        ] {
            let catalog = catalog_of("T", vec![("C", Column::Cell(cells))]);
            let plan = scan("T");
            assert_tables_match(&run(&plan, &catalog, 2), &software(&plan, &catalog));
        }
    }

    fn pos_explode(array: &str, init_pos: Expr) -> LogicalPlan {
        LogicalPlan::PosExplode {
            input: Box::new(scan("T")),
            array: ColRef::bare(array),
            init_pos,
        }
    }

    #[test]
    fn explode_rejects_rows_that_are_not_lists_of_numbers() {
        let lists = |cells: Vec<Value>| catalog_of("T", vec![("A", Column::Cell(cells))]);
        let plan = pos_explode("A", Expr::Number(0));
        assert_eq!(
            unsupported(
                &plan,
                &lists(vec![Value::List(vec![Value::U64(1)]), Value::U64(3)])
            ),
            pair("PosExplode", "column A row 1 holds U64(3), not a list")
        );
        assert_eq!(
            unsupported(
                &plan,
                &lists(vec![Value::List(vec![Value::U64(1), Value::Bool(true)])])
            ),
            pair("PosExplode", "column A row 0 item 1 holds Bool(true), not a number")
        );
        assert_eq!(
            unsupported(&plan, &catalog_of("T", vec![("A", Column::U32(vec![4]))])),
            pair("PosExplode", "column A has type U32, not a per-row list")
        );
    }

    #[test]
    fn explode_position_column_must_be_numeric() {
        let plan = pos_explode("A", Expr::Col(ColRef::bare("P")));
        let array = || Column::ListU8(vec![vec![1], vec![2], vec![3]]);
        let cells = Column::Cell(vec![Value::U64(1), Value::U64(2), Value::Null]);
        assert_eq!(
            unsupported(&plan, &catalog_of("T", vec![("A", array()), ("P", cells)])),
            pair("PosExplode", "position column P row 2 is not numeric")
        );
        let flags = Column::Bool(vec![true, false, true]);
        assert_eq!(
            unsupported(&plan, &catalog_of("T", vec![("A", array()), ("P", flags)])),
            pair("PosExplode", "position column P row 0 is not numeric")
        );
    }

    #[test]
    fn over_long_list_is_rejected_by_row() {
        // A list that long cannot be built in a test; the length check
        // every list row passes through is pinned directly.
        assert_eq!(list_len(7, "SEQ", 0, "ReadExplode").unwrap(), 7);
        let err = list_len(u32::MAX as usize + 1, "SEQ", 3, "ReadExplode").unwrap_err();
        let CoreError::Unsupported { node, reason } = err else { panic!("{err}") };
        assert_eq!((node.as_str(), reason.as_str()), ("ReadExplode", "column SEQ row 3 list is too long"));
    }

    #[test]
    fn pushed_conjunct_that_no_longer_resolves_is_a_host_error() {
        let plan = filter_lt(scan("T"), "X", 10);
        let cfg = DeviceConfig::small();
        let low = analyze(&plan, &catalog_of("T", vec![("X", Column::U32(vec![1, 20]))]), &cfg)
            .unwrap();
        assert_eq!(low.pushed.len(), 1);
        // The same table now holds booleans under that name: `X < 10` is
        // no comparison the scan can evaluate.
        let rebound = catalog_of("T", vec![("X", Column::Bool(vec![true, false]))]);
        let err = low.prepare(&cfg, &rebound, 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "host api error: pushed conjunct no longer resolves against the scan"
        );
    }
}
