//! What a leaf binds of its table: the columns a plain scan streams
//! (projection pushdown), every cell widened to the `u64` a flit field
//! carries, an explode's list columns flattened with the CIGAR walk that
//! sizes its output, and a reference window's values and bounds.

use super::{
    find, for_each_ref, is_partition_key, may_resolve, unknown_column, ColInfo, Decode, EachRow,
    CHR_COL, LOOP_LEAVES, POS_COLS,
};
use super::pushdown::PushedFilter;
use crate::error::CoreError;
use genesis_hw::word::MAX_FIELDS;
use genesis_sql::ast::{BinOp, ColRef, Expr, SelectItem};
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::{Column, DataType, Field, Schema, Table, Value};
use std::borrow::Cow;
use std::ops::Range;

/// One scanned column, copied out of the catalog once — every cell
/// widened to the `u64` a flit field carries — so the per-job build
/// closures only capture `Sync` data (the [`Catalog`] holds non-`Sync`
/// custom modules). Each replica's range narrows from here straight into
/// device memory ([`crate::builder::PipelineBuilder::upload_column`]).
#[derive(Debug, Clone)]
pub(super) struct PreparedCol {
    pub(super) name: String,
    pub(super) elem_bytes: usize,
    pub(super) decode: Decode,
    pub(super) vals: Vec<u64>,
    /// For flattened list columns (explode inputs): per scan-row run
    /// lengths into `vals`. `None` for one-value-per-row columns.
    pub(super) lens: Option<Vec<u32>>,
}

/// How an explode leaf re-expands its absorbed scan at build time.
#[derive(Debug, Clone)]
pub(super) struct ExplodeSpec {
    /// A QUAL stream accompanies POS/CIGAR/SEQ into the `ReadToBases`
    /// block (and a third output column leaves it).
    pub(super) has_qual: bool,
    /// Output-stream column metadata, derived over the full scan range
    /// by walking the CIGARs (conservative for any sub-range: nullability
    /// and max bounds only shrink on a slice, ascending only holds).
    pub(super) out_cols: Vec<ColInfo>,
    /// Prefix sums of exploded output rows per scan row
    /// (`len == rows + 1`), so a spine slice's expansion is O(1).
    pub(super) out_offsets: Vec<usize>,
    /// Plan node name for summaries (`ReadExplode` / `PosExplode`).
    pub(super) node: &'static str,
}

/// One `Scan` leaf of the core plan, resolved against the catalog. An
/// explode node absorbs its input scan into one `PreparedScan` whose
/// list columns are flattened (`PreparedCol::lens`) and carries the
/// [`ExplodeSpec`] describing the hardware re-expansion.
#[derive(Debug, Clone)]
pub(super) struct PreparedScan {
    pub(super) table: String,
    pub(super) rows: usize,
    /// The streamed columns ([`PreparedScan::streamed`]), then
    /// `host_only` columns no Memory Reader reads.
    pub(super) cols: Vec<PreparedCol>,
    /// Trailing `cols` bound for the host only: a pushed conjunct's
    /// operands until [`apply_pushdown`] has selected the rows, and the
    /// spine's partition key, which [`PreparedJob::shard_ranges`] cuts on.
    ///
    /// [`apply_pushdown`]: super::pushdown::apply_pushdown
    /// [`PreparedJob::shard_ranges`]: super::PreparedJob::shard_ranges
    pub(super) host_only: usize,
    /// The scanned table's columns no Memory Reader streams, because
    /// projection pushdown ([`Projection`]) pruned the scan: the host-only
    /// ones and those nothing reads. An unknown column's did-you-mean
    /// draws on them.
    pub(super) unstreamed: Vec<String>,
    pub(super) explode: Option<ExplodeSpec>,
    /// A reference window ([`prepare_window`]): the position of its
    /// scratchpad's first element.
    pub(super) window: Option<u64>,
    /// Rows the scan held *before* predicate pushdown dropped any
    /// (`== rows` when nothing was pushed); feeds the
    /// `scan.rows_scanned` counter and the cost model's selectivity.
    pub(super) rows_scanned: usize,
    /// When pushdown dropped rows: each survivor's original row index,
    /// ascending (`len == rows`). Used to attribute scanned rows to
    /// shard ranges so scatter-gather stays balanced on survivors.
    pub(super) kept: Option<Vec<usize>>,
}

impl PreparedScan {
    /// The columns the scan's Memory Readers stream.
    pub(super) fn streamed(&self) -> &[PreparedCol] {
        &self.cols[..self.cols.len() - self.host_only]
    }

    /// Drops the host-only operands of pushed conjuncts once they have
    /// selected the rows; on the spine, the partition key stays.
    pub(super) fn drop_operands(&mut self, spine: bool) {
        let streamed = self.cols.len() - self.host_only;
        let mut i = 0;
        self.cols.retain(|c| {
            i += 1;
            i <= streamed || (spine && is_partition_key(&c.name))
        });
        self.host_only = self.cols.len() - streamed;
    }

    /// Original (pre-pushdown) rows attributed to the surviving-row range
    /// `r`: the survivors' source rows plus the dropped rows between
    /// them. Leading dropped rows go to the first range and trailing
    /// ones to the last, so any partition of `0..rows` into contiguous
    /// ranges attributes exactly `rows_scanned` rows in total.
    pub(super) fn scanned_rows(&self, r: &Range<usize>) -> usize {
        let Some(kept) = &self.kept else { return r.len() };
        let lo = if r.start == 0 { 0 } else { kept[r.start] };
        let hi = if r.end == self.rows { self.rows_scanned } else { kept[r.end] };
        hi - lo
    }
}

/// Longest match run one packed CIGAR element holds (13-bit length).
const MATCH_RUN: u32 = (1 << 13) - 1;

/// Appends the all-match CIGAR of an `n`-item row, one `M` run per
/// [`MATCH_RUN`] items, to `out`; returns the number of elements.
pub(super) fn match_cigar(n: u32, out: &mut Vec<u64>) -> Result<u32, CoreError> {
    let mut left = n;
    let mut elems = 0u32;
    while left > 0 {
        let run = left.min(MATCH_RUN);
        let elem = genesis_types::CigarElem { op: genesis_types::CigarOp::Match, len: run };
        let packed =
            elem.pack().map_err(|e| CoreError::Host(format!("synthesized CIGAR: {e}")))?;
        out.push(u64::from(packed));
        elems += 1;
        left -= run;
    }
    Ok(elems)
}

/// Bytes one element of a `dtype` column streams as, when a Memory
/// Reader can stream it at all (a `Cell` column counts at full width).
fn stream_width(dtype: DataType) -> Option<usize> {
    match dtype {
        DataType::U8 | DataType::Bool => Some(1),
        DataType::U16 => Some(2),
        DataType::U32 => Some(4),
        DataType::U64 | DataType::Cell => Some(8),
        DataType::Str | DataType::ListU8 | DataType::ListU16 | DataType::ListBool => None,
    }
}

/// How a plain scan binds one column of its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bind {
    /// A Memory Reader streams it.
    Stream,
    /// Only the host reads it ([`PreparedScan::host_only`]).
    Host,
    /// Nothing reads it, so it is never widened.
    Skip,
}

/// Projection pushdown: a pruned plain scan binds, uploads and streams
/// only the columns some column reference of the core plan could resolve
/// to ([`may_resolve`]). Every reference therefore resolves to the same
/// column, or is ambiguous between the same columns, as over the whole
/// table; the rest are never widened.
#[derive(Debug, Clone, Default)]
pub(super) struct Projection {
    /// Every column reference the core plan resolves against a stream.
    refs: Vec<ColRef>,
    /// Per prepared scan, in leaf order: whether the leaf is pruned.
    pruned: Vec<bool>,
}

impl Projection {
    /// Derives the projection of `core`. A plain scan is pruned unless its
    /// columns reach the output: through a `Filter`, a `Join` or a bare
    /// `Scan` at the root, or through a `SELECT *`. Explode and window
    /// leaves pick their own columns and are never pruned.
    pub(super) fn of(core: &LogicalPlan) -> Projection {
        fn walk(plan: &LogicalPlan, whole: bool, p: &mut Projection) {
            let mut add = |e: &Expr| for_each_ref(e, &mut |c| p.refs.push(c.clone()));
            match plan {
                LogicalPlan::Scan { .. } => p.pruned.push(!whole),
                LogicalPlan::PosExplode { .. }
                | LogicalPlan::ReadExplode { .. }
                | LogicalPlan::Limit { .. } => p.pruned.push(false),
                LogicalPlan::Filter { input, pred } => {
                    add(pred);
                    walk(input, whole, p);
                }
                LogicalPlan::Join { left, right, left_key, right_key, .. } => {
                    p.refs.extend([left_key.clone(), right_key.clone()]);
                    walk(left, whole, p);
                    walk(right, whole, p);
                }
                LogicalPlan::Project { input, items }
                | LogicalPlan::Aggregate { input, items, .. } => {
                    let mut star = false;
                    for item in items {
                        match item {
                            SelectItem::Star => star = true,
                            SelectItem::Expr { expr, .. } => add(expr),
                            SelectItem::Agg { arg, .. } => arg.iter().for_each(&mut add),
                        }
                    }
                    if let LogicalPlan::Aggregate { group_by, .. } = plan {
                        p.refs.extend(group_by.iter().cloned());
                    }
                    walk(input, star, p);
                }
                // Not lowerable inside a pipeline; binding reports them.
                LogicalPlan::Sort { .. } | LogicalPlan::ForEach { .. } => {
                    plan.inputs().for_each(|input| walk(input, true, p));
                }
            }
        }
        let mut p = Projection::default();
        walk(core, true, &mut p);
        p
    }

    /// How the `idx`-th prepared scan binds each column of `t`, or `None`
    /// when it streams them all. A column no reference reaches is
    /// skipped; if that leaves nothing to stream (`COUNT(*)` alone), the
    /// narrowest streamable column, the first on a tie, carries the rows.
    /// Skipped columns that a conjunct pushed into this scan reads, and
    /// the spine's partition key, are bound for the host.
    fn binds(&self, idx: usize, t: &Table, pushed: &[PushedFilter]) -> Option<Vec<Bind>> {
        if !self.pruned.get(idx).copied().unwrap_or(false) {
            return None;
        }
        let fields = t.schema().fields();
        let mut binds: Vec<Bind> = fields
            .iter()
            .map(|f| {
                if self.refs.iter().any(|r| may_resolve(&f.name, r)) {
                    Bind::Stream
                } else {
                    Bind::Skip
                }
            })
            .collect();
        if !binds.contains(&Bind::Stream) {
            let narrowest = (0..fields.len())
                .filter_map(|i| Some((stream_width(fields[i].dtype)?, i)))
                .min_by_key(|&(width, _)| width);
            if let Some((_, i)) = narrowest {
                binds[i] = Bind::Stream;
            }
        }
        let has = |name: &str| fields.iter().any(|f| f.name == name);
        let keyed = idx == 0 && has(CHR_COL) && POS_COLS.iter().any(|&p| has(p));
        let conjuncts: Vec<&Expr> =
            pushed.iter().filter(|pf| pf.scan == idx).flat_map(|pf| &pf.conjuncts).collect();
        for (bind, f) in binds.iter_mut().zip(fields) {
            if *bind != Bind::Skip {
                continue;
            }
            let mut operand = false;
            for e in &conjuncts {
                for_each_ref(e, &mut |c| operand |= may_resolve(&f.name, c));
            }
            let key = keyed && is_partition_key(&f.name) && stream_width(f.dtype).is_some();
            if operand || key {
                *bind = Bind::Host;
            }
        }
        Some(binds)
    }
}

/// Walks the core plan collecting every `Scan` leaf left-to-right and
/// binding its columns ([`Projection::binds`]). Leaf order matches
/// `build::build_node`'s traversal, so the first prepared scan is the
/// replication spine.
pub(super) fn prepare_scans(
    plan: &LogicalPlan,
    catalog: &Catalog,
    each_row: Option<&EachRow>,
    projection: &Projection,
    pushed: &[PushedFilter],
    out: &mut Vec<PreparedScan>,
) -> Result<(), CoreError> {
    match (plan, each_row) {
        (LogicalPlan::Scan { .. }, Some(_)) => Err(CoreError::unsupported("ForEach", LOOP_LEAVES)),
        (LogicalPlan::Scan { table, partition }, None) => {
            let t = lookup_table(table, partition.as_ref(), catalog)?;
            let binds = projection.binds(out.len(), t, pushed);
            out.push(prepare_table(table, t, binds.as_deref())?);
            Ok(())
        }
        (
            LogicalPlan::Project { .. }
            | LogicalPlan::Filter { .. }
            | LogicalPlan::Aggregate { .. }
            | LogicalPlan::Join { .. },
            _,
        ) => plan.inputs().try_for_each(|input| {
            prepare_scans(input, catalog, each_row, projection, pushed, out)
        }),
        (LogicalPlan::Limit { input, offset, count }, Some(each)) => {
            let window = prepare_window(input, offset, count, catalog, each, out)?;
            out.push(window);
            Ok(())
        }
        (LogicalPlan::Sort { .. } | LogicalPlan::Limit { .. }, _) => Err(CoreError::unsupported(
            plan_node_name(plan),
            "only supported as a final host-side step above the hardware pipeline",
        )),
        (LogicalPlan::PosExplode { .. } | LogicalPlan::ReadExplode { .. }, _) => {
            out.push(prepare_explode(plan, catalog, each_row)?);
            Ok(())
        }
        (LogicalPlan::ForEach { .. }, _) => {
            Err(CoreError::unsupported("ForEach", "a loop nested in a loop body"))
        }
    }
}

/// Resolves a `Scan` leaf's table (with optional partition selector)
/// against the catalog, with a did-you-mean for unknown names.
pub(super) fn lookup_table<'c>(
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

pub(super) fn plan_node_name(plan: &LogicalPlan) -> &'static str {
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
        LogicalPlan::ForEach { .. } => "ForEach",
    }
}

/// One typed pass over a fixed-width column: every cell widened to the
/// `u64` a flit field carries.
fn widen<T: Copy + Into<u64>>(cells: &[T]) -> Vec<u64> {
    cells.iter().map(|&x| x.into()).collect()
}

/// Widens the columns of `t` a plain scan binds (`binds`, or every
/// column when `None`): the streamed ones in table order, then the
/// host-only ones. The flit-width and type checks apply to what is bound.
fn prepare_table(name: &str, t: &Table, binds: Option<&[Bind]>) -> Result<PreparedScan, CoreError> {
    let node = format!("Scan({name})");
    let bind = |ci: usize| binds.map_or(Bind::Stream, |b| b[ci]);
    let width = t.schema().len();
    let streamed = (0..width).filter(|&ci| bind(ci) == Bind::Stream).count();
    if streamed > MAX_FIELDS {
        return Err(CoreError::unsupported(
            node,
            format!("{streamed} columns exceed the {MAX_FIELDS}-field flit width"),
        ));
    }
    let mut cols = Vec::with_capacity(streamed);
    let mut host = Vec::new();
    let mut unstreamed = Vec::with_capacity(width - streamed);
    for (ci, f) in t.schema().fields().iter().enumerate() {
        if bind(ci) != Bind::Stream {
            unstreamed.push(f.name.clone());
        }
        let into = match bind(ci) {
            Bind::Stream => &mut cols,
            Bind::Host => &mut host,
            Bind::Skip => continue,
        };
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
        into.push(PreparedCol { name: f.name.clone(), elem_bytes, decode, vals, lens: None });
    }
    let rows = t.num_rows();
    let host_only = host.len();
    cols.extend(host);
    Ok(PreparedScan {
        table: name.to_owned(),
        rows,
        cols,
        host_only,
        unstreamed,
        explode: None,
        window: None,
        rows_scanned: rows,
        kept: None,
    })
}

/// Resolves a column reference against a table schema ([`find`]).
fn schema_col(t: &Table, col: &ColRef, node: &str) -> Result<usize, CoreError> {
    let names = t.schema().fields().iter().map(|f| f.name.as_str());
    find(names.clone(), col).map_err(|hits| match hits[..] {
        [] => unknown_column(col, names, node),
        _ => CoreError::plan(node, format!("ambiguous column {}", col.display_name())),
    })
}

/// A list's length as the `u32` run length a Memory Reader delimits.
pub(super) fn list_len(items: usize, name: &str, r: usize, node: &str) -> Result<u32, CoreError> {
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
fn prepare_explode(
    plan: &LogicalPlan,
    catalog: &Catalog,
    each_row: Option<&EachRow>,
) -> Result<PreparedScan, CoreError> {
    let node = plan_node_name(plan);
    let (input, pos_expr) = match plan {
        LogicalPlan::ReadExplode { input, pos, .. } => (input, pos.clone()),
        LogicalPlan::PosExplode { input, init_pos, .. } => (input, init_pos.clone()),
        _ => return Err(CoreError::Host("prepare_explode on non-explode".into())),
    };
    // A loop body explodes its loop row: the loop's rows, one item each.
    let input = match (&**input, each_row) {
        (LogicalPlan::Scan { table, .. }, Some(each)) if *table == each.var => &each.rows,
        (_, Some(_)) => return Err(CoreError::unsupported("ForEach", LOOP_LEAVES)),
        (other, None) => other,
    };
    let (table, t) = source_table(input, catalog, node)?;
    let t = &*t;
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
            for &n in data.lens.as_deref().unwrap_or(&[]) {
                lens.push(match_cigar(n, &mut vals)?);
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
    let data_col = |name: &str, c: &PreparedCol| ColInfo {
        nullable: has_del,
        max_value: c.vals.iter().copied().max(),
        ..ColInfo::new(name, c.decode)
    };
    let mut out_cols = vec![
        ColInfo {
            nullable: has_ins,
            ascending,
            max_value: Some(max_pos),
            ..ColInfo::new(&out_names[0], Decode::U64)
        },
        data_col(&out_names[1], &seq_col),
    ];
    out_cols.extend(qual_col.as_ref().map(|q| data_col(&out_names[2], q)));
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
        table: table.to_owned(),
        rows,
        cols,
        host_only: 0,
        unstreamed: Vec::new(),
        explode: Some(ExplodeSpec { has_qual, out_cols, out_offsets, node }),
        window: None,
        rows_scanned: rows,
        kept: None,
    })
}

/// The spine columns holding each loop row's clipped window bounds,
/// `[start, end)` positions ([`prepare_window`]).
pub(super) const WINDOW_BOUNDS: [&str; 2] = ["WINDOW.START", "WINDOW.END"];

/// Prepares a reference window: `LIMIT row.P - <start>, row.E - row.P`
/// in the body of `FOR row`, over the `PosExplode` of a one-row table
/// whose own start position is `<start>` — so the exploded table's row
/// `i` holds position `<start> + i`, and the window is positions `[P, E)`
/// clipped to the table exactly as the software `LIMIT` clips row
/// indices. The reference values fill the window's scratchpad; each loop
/// row's clipped bounds join the explode of the loop row (the spine,
/// `out[0]`) as two more columns.
fn prepare_window(
    input: &LogicalPlan,
    offset: &Expr,
    count: &Expr,
    catalog: &Catalog,
    each: &EachRow,
    out: &mut [PreparedScan],
) -> Result<PreparedScan, CoreError> {
    const NODE: &str = "Limit";
    let shape = || {
        CoreError::unsupported(
            NODE,
            "a window is LIMIT row.P - <start>, row.E - row.P over the PosExplode of one \
             reference row starting at <start>",
        )
    };
    let (
        LogicalPlan::PosExplode { input: reference, array, init_pos },
        Expr::Bin { op: BinOp::Sub, lhs: p, rhs: start },
        Expr::Bin { op: BinOp::Sub, lhs: e, rhs: p_again },
    ) = (input, offset, count)
    else {
        return Err(shape());
    };
    let of_row = |e: &Expr| matches!(e, Expr::Col(c) if c.table.as_deref() == Some(&each.var));
    if !(of_row(p) && of_row(e) && p == p_again && **start == *init_pos) {
        return Err(shape());
    }
    let (table, t) = source_table(reference, catalog, NODE)?;
    if t.num_rows() != 1 {
        return Err(CoreError::unsupported(
            NODE,
            format!("the window's reference table {table} holds {} rows, not one", t.num_rows()),
        ));
    }
    let base = explode_pos_vals(&t, init_pos, NODE)?[0];
    let values = flatten_list_col(&t, schema_col(&t, array, NODE)?, NODE)?;
    let (_, loop_rows) = source_table(&each.rows, catalog, NODE)?;
    let starts = explode_pos_vals(&loop_rows, p, NODE)?;
    let ends = explode_pos_vals(&loop_rows, e, NODE)?;
    let Some(spine) = out.first_mut().filter(|s| s.explode.is_some() && s.rows == starts.len())
    else {
        return Err(CoreError::unsupported(NODE, "a window joins the explode of its loop row"));
    };
    // The software LIMIT's rows [P - base, E - base) clipped to the table.
    let clip = |row: u64| base.saturating_add(row.min(values.vals.len() as u64));
    let lo = starts.iter().map(|&s| clip(s.wrapping_sub(base))).collect();
    let hi = starts.iter().zip(&ends);
    let hi = hi.map(|(&s, &e)| clip(s.wrapping_sub(base).saturating_add(e.wrapping_sub(s))));
    let bound = |name: &str, vals| PreparedCol {
        name: name.to_owned(),
        elem_bytes: 8,
        decode: Decode::U64,
        vals,
        lens: None,
    };
    spine.cols.extend([bound(WINDOW_BOUNDS[0], lo), bound(WINDOW_BOUNDS[1], hi.collect())]);
    Ok(PreparedScan {
        table: table.to_owned(),
        rows: 1,
        cols: vec![values],
        host_only: 0,
        unstreamed: Vec::new(),
        explode: None,
        window: Some(base),
        rows_scanned: 1,
        kept: None,
    })
}

/// The table a leaf reads — a scan, or a projection that only selects (and
/// renames) a scan's columns, materialized — with the scanned table's name.
fn source_table<'p, 'c>(
    plan: &'p LogicalPlan,
    catalog: &'c Catalog,
    node: &str,
) -> Result<(&'p str, Cow<'c, Table>), CoreError> {
    let derived = || {
        CoreError::unsupported(
            node,
            "explode over a derived stream (explode a scan or a projection of its columns)",
        )
    };
    let (scan, items) = match plan {
        LogicalPlan::Project { input, items } => (&**input, Some(items)),
        other => (other, None),
    };
    let LogicalPlan::Scan { table, partition } = scan else { return Err(derived()) };
    let t = lookup_table(table, partition.as_ref(), catalog)?;
    let Some(items) = items else { return Ok((table, Cow::Borrowed(t))) };
    let mut fields = Vec::with_capacity(items.len());
    let mut cols = Vec::with_capacity(items.len());
    for item in items {
        let SelectItem::Expr { expr: Expr::Col(c), alias } = item else { return Err(derived()) };
        let i = schema_col(t, c, node)?;
        let name = alias.clone().unwrap_or_else(|| c.display_name());
        fields.push(Field::new(&name, t.schema().fields()[i].dtype));
        cols.push(t.column_at(i).clone());
    }
    Ok((table, Cow::Owned(Table::from_columns(Schema::new(fields), cols)?)))
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
