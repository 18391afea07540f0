//! What a leaf binds of its table: the columns a plain scan streams
//! (projection pushdown) and the rows its pushed conjuncts keep, copied
//! once at the width the catalog holds them; an explode's list columns
//! flattened with the CIGAR walk that sizes its output; and a reference
//! window's values and bounds.

use super::{
    for_each_ref, is_partition_key, unknown_column, Decode, EachRow, StreamCol, CHR_COL,
    LOOP_LEAVES, POS_COLS,
};
use super::bounds::Bounds;
use super::pushdown::{select, Literals, PushedFilter, Survivors};
use crate::error::CoreError;
use genesis_hw::word::MAX_FIELDS;
use genesis_sql::ast::{BinOp, ColRef, Expr, SelectItem};
use genesis_sql::exec::{find_col, item_name, may_resolve};
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::{Column, DataType, Table, Value};
use std::borrow::Cow;
use std::ops::Range;

/// A bound column's values at the width the catalog holds them: `Bool`
/// as `u8`, a uniform `Cell` as `u64`. The device width is
/// [`PreparedCol::elem_bytes`]; an upload narrows or widens to it.
#[derive(Debug, Clone)]
pub(super) enum Vals {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
}

/// `$body` with `$v` bound to the values of `$vals` (a `&Vals`) as a
/// slice of their own width, each of which converts `Into<u64>`.
macro_rules! by_width {
    ($vals:expr, $v:ident => $body:expr) => {
        match $vals {
            $crate::lower::bind::Vals::U8($v) => $body,
            $crate::lower::bind::Vals::U16($v) => $body,
            $crate::lower::bind::Vals::U32($v) => $body,
            $crate::lower::bind::Vals::U64($v) => $body,
        }
    };
}
pub(super) use by_width;

macro_rules! vals_from {
    ($($t:ty => $variant:ident),*) => {
        $(impl From<Vec<$t>> for Vals {
            fn from(v: Vec<$t>) -> Vals {
                Vals::$variant(v)
            }
        })*
    };
}
vals_from!(u8 => U8, u16 => U16, u32 => U32, u64 => U64);

/// A value of any width [`by_width`] yields, as the `u64` it compares as.
pub(super) fn as_u64<T: Into<u64>>(x: T) -> u64 {
    x.into()
}

impl Vals {
    pub(super) fn len(&self) -> usize {
        by_width!(self, v => v.len())
    }

    /// The `i`-th value.
    pub(super) fn get(&self, i: usize) -> u64 {
        by_width!(self, v => as_u64(v[i]))
    }

    pub(super) fn bounds(&self) -> Bounds {
        by_width!(self, v => Bounds::of(v.iter().map(|&x| as_u64(x))))
    }
}

/// One scanned column, copied out of the catalog once, at the width the
/// catalog holds it: the job that holds it runs on a host worker thread
/// after `submit` has returned, so it outlives the `&Catalog` borrow it
/// was bound from. Each replica's range narrows from here straight into
/// device memory ([`crate::builder::PipelineBuilder::upload_column`]).
#[derive(Debug, Clone)]
pub(super) struct PreparedCol {
    pub(super) name: String,
    /// Bytes one element takes in device memory.
    pub(super) elem_bytes: usize,
    pub(super) decode: Decode,
    pub(super) vals: Vals,
    /// For flattened list columns (explode inputs): per scan-row run
    /// lengths into `vals`. `None` for one-value-per-row columns.
    pub(super) lens: Option<Vec<u32>>,
    /// The catalog type of the column it copies (`None` for a column the
    /// bind derives), which types the plan's output: a bind holds it to
    /// the analysis' ([`super::Lowering::prepare`]).
    pub(super) dtype: Option<DataType>,
}

/// How an explode leaf re-expands its absorbed scan at build time.
#[derive(Debug, Clone)]
pub(super) struct ExplodeSpec {
    /// The data columns streamed beside POS and CIGAR into the
    /// `ReadToBases` block, each leaving it as one more output column: 0,
    /// 1 (`SEQ` or the `PosExplode` array) or 2 (`SEQ` and `QUAL`).
    pub(super) data: usize,
    /// Output-stream column metadata, derived over the full scan range
    /// by walking the CIGARs (conservative for any sub-range: nullability
    /// and bounds only shrink on a slice, ascending only holds). An
    /// uncut spine bounds its POS per slice instead, from its rows'
    /// starts and [`ExplodeSpec::last_pos`].
    pub(super) out_cols: Vec<StreamCol>,
    /// Prefix sums of exploded output rows per scan row
    /// (`len == rows + 1`), so a spine slice's expansion is O(1).
    pub(super) out_offsets: Vec<usize>,
    /// Each scan row's last reference position (`end - 1`, at least its
    /// start): the largest position the row can emit.
    pub(super) last_pos: Vec<u64>,
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
    /// Trailing `cols` bound for the host only: the spine's partition
    /// key, which [`PreparedJob::shard_ranges`] cuts on. (A pushed
    /// conjunct's other operands select the rows in the catalog and are
    /// never copied.)
    ///
    /// [`PreparedJob::shard_ranges`]: super::PreparedJob::shard_ranges
    pub(super) host_only: usize,
    /// The scanned table's columns no Memory Reader streams, because
    /// projection pushdown ([`Projection`]) pruned the scan: the host-only
    /// ones and those nothing reads; for an explode, the output columns it
    /// does not stream. An unknown column's did-you-mean draws on them.
    pub(super) unstreamed: Vec<String>,
    pub(super) explode: Option<ExplodeSpec>,
    /// A reference window ([`prepare_window`]): the position of its
    /// scratchpad's first element.
    pub(super) window: Option<u64>,
    /// Rows the scan held *before* predicate pushdown dropped any
    /// (`== rows` when nothing was pushed); feeds the
    /// `scan.rows_scanned` counter and the cost model's selectivity.
    pub(super) rows_scanned: usize,
    /// When pushdown dropped rows of the spine: the row mask `select`
    /// built, one bit per scanned row. Used to attribute scanned rows to
    /// shard ranges so scatter-gather stays balanced on survivors; no
    /// other leaf is cut into shards, so none keeps one.
    pub(super) kept: Option<Survivors>,
}

impl PreparedScan {
    /// The columns the scan's Memory Readers stream.
    pub(super) fn streamed(&self) -> &[PreparedCol] {
        &self.cols[..self.cols.len() - self.host_only]
    }

    /// Original (pre-pushdown) rows attributed to the surviving-row range
    /// `r`: the survivors' source rows plus the dropped rows between
    /// them. Leading dropped rows go to the first range and trailing
    /// ones to the last, so any partition of `0..rows` into contiguous
    /// ranges attributes exactly `rows_scanned` rows in total.
    pub(super) fn scanned_rows(&self, r: &Range<usize>) -> usize {
        let Some(kept) = &self.kept else { return r.len() };
        let at = |i: usize| kept.scanned_row(i).unwrap_or(self.rows_scanned);
        let lo = if r.start == 0 { 0 } else { at(r.start) };
        at(r.end) - lo
    }
}

/// Longest match run one packed CIGAR element holds (13-bit length).
const MATCH_RUN: u32 = (1 << 13) - 1;

/// Appends the all-match CIGAR of an `n`-item row, one `M` run per
/// [`MATCH_RUN`] items, to `out`; returns the number of elements.
pub(super) fn match_cigar(n: u32, out: &mut Vec<u16>) -> Result<u32, CoreError> {
    let mut left = n;
    let mut elems = 0u32;
    while left > 0 {
        let run = left.min(MATCH_RUN);
        let elem = genesis_types::CigarElem { op: genesis_types::CigarOp::Match, len: run };
        let packed =
            elem.pack().map_err(|e| CoreError::Host(format!("synthesized CIGAR: {e}")))?;
        out.push(packed);
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
    /// The spine's partition key: copied for the host alone
    /// ([`PreparedScan::host_only`]).
    Key,
    /// A pushed conjunct reads it where the catalog holds it; nothing
    /// copies it.
    Operand,
    /// Nothing reads it.
    Skip,
}

/// Projection pushdown: a pruned plain scan binds, uploads and streams
/// only the columns some column reference of the core plan could resolve
/// to ([`may_resolve`]), and a pruned explode only the data columns whose
/// output names one could. Every reference therefore resolves to the same
/// column, or is ambiguous between the same columns, as over the whole
/// table; the rest are never copied.
#[derive(Debug, Clone, Default)]
pub(super) struct Projection {
    /// Every column reference the core plan resolves against a stream.
    refs: Vec<ColRef>,
    /// Per prepared scan, in leaf order: whether the leaf is pruned.
    pruned: Vec<bool>,
}

impl Projection {
    /// Derives the projection of `core`. A plain scan or an explode is
    /// pruned unless its columns reach the output: through a `Filter`, a
    /// `Join` or a bare leaf at the root, or through a `SELECT *`. Window
    /// leaves pick their own columns and are never pruned.
    pub(super) fn of(core: &LogicalPlan) -> Projection {
        fn walk(plan: &LogicalPlan, whole: bool, p: &mut Projection) {
            let mut add = |e: &Expr| for_each_ref(e, &mut |c| p.refs.push(c.clone()));
            match plan {
                LogicalPlan::Scan { .. }
                | LogicalPlan::PosExplode { .. }
                | LogicalPlan::ReadExplode { .. } => p.pruned.push(!whole),
                LogicalPlan::Limit { .. } => p.pruned.push(false),
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

    /// Whether the `idx`-th prepared leaf is pruned.
    fn pruned(&self, idx: usize) -> bool {
        self.pruned.get(idx).copied().unwrap_or(false)
    }

    /// Whether some column reference could resolve to a stream column
    /// carrying `name`.
    fn reads(&self, name: &str) -> bool {
        self.refs.iter().any(|r| may_resolve(name, r))
    }

    /// How the `idx`-th prepared scan binds each column of `t`, or `None`
    /// when it streams them all. A column no reference reaches is
    /// skipped; if that leaves nothing to stream (`COUNT(*)` alone), the
    /// narrowest streamable column, the first on a tie, carries the rows.
    /// Of the rest, the spine's partition key is bound for the host, and
    /// the columns a conjunct pushed into this scan reads are read in
    /// place.
    fn binds(&self, idx: usize, t: &Table, pushed: &[PushedFilter]) -> Option<Vec<Bind>> {
        if !self.pruned(idx) {
            return None;
        }
        let fields = t.schema().fields();
        let mut binds: Vec<Bind> = fields
            .iter()
            .map(|f| if self.reads(&f.name) { Bind::Stream } else { Bind::Skip })
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
            if key {
                *bind = Bind::Key;
            } else if operand {
                *bind = Bind::Operand;
            }
        }
        Some(binds)
    }
}

/// Walks the core plan collecting every `Scan` leaf left-to-right and
/// binding its columns ([`Projection::binds`]) and the rows its pushed
/// conjuncts keep, their literals drawn from `literals`. Leaf order
/// matches `build::build_node`'s traversal, so the first prepared scan is
/// the replication spine.
pub(super) fn prepare_scans(
    plan: &LogicalPlan,
    catalog: &Catalog,
    each_row: Option<&EachRow>,
    (projection, pushed): (&Projection, &[PushedFilter]),
    literals: &mut Literals<'_>,
    out: &mut Vec<PreparedScan>,
) -> Result<(), CoreError> {
    match (plan, each_row) {
        (LogicalPlan::Scan { .. }, Some(_)) => Err(CoreError::unsupported("ForEach", LOOP_LEAVES)),
        (LogicalPlan::Scan { table, partition }, None) => {
            let t = lookup_table(table, partition.as_ref(), catalog)?;
            let idx = out.len();
            let binds = projection.binds(idx, t, pushed);
            let conjuncts = pushed.iter().find(|pf| pf.scan == idx).map(|pf| &pf.conjuncts[..]);
            let spine = idx == 0;
            out.push(prepare_table(table, t, binds.as_deref(), spine, conjuncts, literals)?);
            Ok(())
        }
        (
            LogicalPlan::Project { .. }
            | LogicalPlan::Filter { .. }
            | LogicalPlan::Aggregate { .. }
            | LogicalPlan::Join { .. },
            _,
        ) => plan.inputs().try_for_each(|input| {
            prepare_scans(input, catalog, each_row, (projection, pushed), literals, out)
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
            // A loop body's explode keeps its whole layout.
            let whole = each_row.is_some() || !projection.pruned(out.len());
            let streams = |name: &str| whole || projection.reads(name);
            out.push(prepare_explode(plan, catalog, each_row, &streams)?);
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

/// A fixed-width catalog column as a bind reads it: borrowed at the width
/// the table holds it, except a uniform `Cell` column, whose validating
/// pass yields its `u64`s.
pub(super) enum Cells<'t> {
    U8(&'t [u8]),
    U16(&'t [u16]),
    U32(&'t [u32]),
    U64(Cow<'t, [u64]>),
    Bool(&'t [bool]),
}

/// One column a plain scan binds, read where the catalog holds it.
pub(super) struct TableCol<'t> {
    pub(super) cells: Cells<'t>,
    elem_bytes: usize,
    decode: Decode,
}

impl<'t> TableCol<'t> {
    /// Reads column `ci` of `t`; only fixed-width numeric and boolean
    /// columns, and `Cell` columns uniformly holding either, bind.
    fn of(t: &'t Table, ci: usize, node: &str) -> Result<TableCol<'t>, CoreError> {
        let f = &t.schema().fields()[ci];
        let (cells, elem_bytes, decode) = match t.column_at(ci) {
            Column::U8(v) => (Cells::U8(v), 1, Decode::U64),
            Column::U16(v) => (Cells::U16(v), 2, Decode::U64),
            Column::U32(v) => (Cells::U32(v), 4, Decode::U64),
            Column::U64(v) => (Cells::U64(Cow::Borrowed(v)), 8, Decode::U64),
            Column::Bool(v) => (Cells::Bool(v), 1, Decode::Bool),
            Column::Cell(cells) => {
                let (elem_bytes, decode, vals) = uniform_cells(cells).ok_or_else(|| {
                    CoreError::unsupported(
                        node,
                        format!(
                            "dynamically-typed column {} holds non-uniform or non-numeric cells",
                            f.name
                        ),
                    )
                })?;
                (Cells::U64(Cow::Owned(vals)), elem_bytes, decode)
            }
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
        Ok(TableCol { cells, elem_bytes, decode })
    }

    /// Copies the rows `keep` selects (every row when `None`), at the
    /// column's width, into a vector of exactly their count.
    fn copy(self, keep: Option<&Survivors>) -> Vals {
        fn rows<T: Copy, U>(v: &[T], keep: Option<&Survivors>, f: impl Fn(T) -> U) -> Vec<U> {
            match keep {
                Some(keep) => keep.gather(v, f),
                None => v.iter().map(|&x| f(x)).collect(),
            }
        }
        match self.cells {
            Cells::U8(v) => Vals::U8(rows(v, keep, |x| x)),
            Cells::U16(v) => Vals::U16(rows(v, keep, |x| x)),
            Cells::U32(v) => Vals::U32(rows(v, keep, |x| x)),
            Cells::U64(Cow::Owned(v)) if keep.is_none() => Vals::U64(v),
            Cells::U64(v) => Vals::U64(rows(&v, keep, |x| x)),
            Cells::Bool(v) => Vals::U8(rows(v, keep, u8::from)),
        }
    }
}

/// Binds the columns of `t` a plain scan binds (`binds`, or every column
/// when `None`): first the rows the pushed `conjuncts` keep, compared
/// where the catalog holds the columns, then one copy of those rows of
/// the streamed columns in table order and, on the spine, of the
/// partition key. The flit-width and type checks apply to what is bound.
fn prepare_table(
    name: &str,
    t: &Table,
    binds: Option<&[Bind]>,
    spine: bool,
    conjuncts: Option<&[Expr]>,
    literals: &mut Literals<'_>,
) -> Result<PreparedScan, CoreError> {
    let node = format!("Scan({name})");
    let bind = |ci: usize| binds.map_or(Bind::Stream, |b| b[ci]);
    let fields = t.schema().fields();
    let streamed = (0..fields.len())
        .filter(|&ci| bind(ci) == Bind::Stream)
        .count();
    if streamed > MAX_FIELDS {
        return Err(CoreError::unsupported(
            node,
            format!("{streamed} columns exceed the {MAX_FIELDS}-field flit width"),
        ));
    }
    let mut bound = Vec::with_capacity(fields.len());
    let mut unstreamed = Vec::with_capacity(fields.len() - streamed);
    for (ci, f) in fields.iter().enumerate() {
        if bind(ci) != Bind::Stream {
            unstreamed.push(f.name.clone());
        }
        bound.push(match bind(ci) {
            Bind::Skip => None,
            _ => Some(TableCol::of(t, ci, &node)?),
        });
    }
    let rows_scanned = t.num_rows();
    let keep = match conjuncts {
        Some(conjuncts) => select(t, &bound, conjuncts, literals)?,
        None => None,
    };
    let mut cols = Vec::with_capacity(streamed);
    let mut keys = Vec::new();
    for (ci, (f, col)) in fields.iter().zip(bound).enumerate() {
        let into = match bind(ci) {
            Bind::Stream => &mut cols,
            Bind::Key => &mut keys,
            Bind::Operand | Bind::Skip => continue,
        };
        let Some(col) = col else { continue };
        let (elem_bytes, decode) = (col.elem_bytes, col.decode);
        let vals = col.copy(keep.as_ref());
        let dtype = Some(f.dtype);
        into.push(PreparedCol { name: f.name.clone(), elem_bytes, decode, vals, lens: None, dtype });
    }
    let host_only = keys.len();
    cols.extend(keys);
    Ok(PreparedScan {
        table: name.to_owned(),
        rows: keep.as_ref().map_or(rows_scanned, Survivors::count),
        cols,
        host_only,
        unstreamed,
        explode: None,
        window: None,
        rows_scanned,
        kept: keep.filter(|_| spine),
    })
}

/// Resolves a column reference against column `names` ([`find_col`]).
fn schema_col<'n>(
    names: impl Iterator<Item = &'n str> + Clone,
    col: &ColRef,
    node: &str,
) -> Result<usize, CoreError> {
    find_col(names.clone(), col).map_err(|hits| match hits[..] {
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

/// One typed pass over a list column: the per-row run lengths and, when
/// `keep` holds, the items concatenated at their width (`item` maps a
/// `bool` to its `u8`).
fn flatten_rows<T: Copy, U>(
    rows: &[Vec<T>],
    (name, node): (&str, &str),
    keep: bool,
    item: impl Fn(T) -> U,
) -> Result<(Vals, Vec<u32>), CoreError>
where
    Vals: From<Vec<U>>,
{
    let mut vals = Vec::with_capacity(if keep { rows.iter().map(Vec::len).sum() } else { 0 });
    let mut lens = Vec::with_capacity(rows.len());
    for (r, items) in rows.iter().enumerate() {
        lens.push(list_len(items.len(), name, r, node)?);
        if keep {
            vals.extend(items.iter().map(|&x| item(x)));
        }
    }
    Ok((Vals::from(vals), lens))
}

/// The dynamically-typed flavor of [`flatten_rows`]: every cell must be a
/// list and every item a number, checked cell by cell (this pass *is*
/// the validation — a `Cell` column promises nothing about its contents).
fn flatten_cells(
    cells: &[Value],
    (name, node): (&str, &str),
    keep: bool,
) -> Result<(Vals, Vec<u32>), CoreError> {
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
            if keep {
                vals.push(x);
            }
        }
    }
    Ok((Vals::U64(vals), lens))
}

/// Flattens column `ci` of `t`, a list column the leaf calls `name`, into
/// (values at their width, per-row lengths), recording the hardware
/// element width by list dtype. A column that will not stream (`keep`
/// false) is checked as one that will, but keeps no values.
fn flatten_list_col(
    t: &Table,
    (ci, name): (usize, &str),
    node: &str,
    keep: bool,
) -> Result<PreparedCol, CoreError> {
    let at = (name, node);
    let (elem_bytes, decode, (vals, lens)) = match t.column_at(ci) {
        Column::ListU8(rows) => (1, Decode::U64, flatten_rows(rows, at, keep, |x| x)?),
        Column::ListBool(rows) => (1, Decode::Bool, flatten_rows(rows, at, keep, u8::from)?),
        Column::ListU16(rows) => (2, Decode::U64, flatten_rows(rows, at, keep, |x| x)?),
        // Dynamic cells holding numeric lists stream at full width.
        Column::Cell(cells) => (8, Decode::U64, flatten_cells(cells, at, keep)?),
        other => {
            return Err(CoreError::unsupported(
                node,
                format!("column {name} has type {:?}, not a per-row list", other.dtype()),
            ))
        }
    };
    let dtype = Some(t.schema().fields()[ci].dtype);
    Ok(PreparedCol { name: name.to_owned(), elem_bytes, decode, vals, lens: Some(lens), dtype })
}

/// Per-row evaluation of an explode's position expression (the software
/// engine evaluates it with a row context; the lowering admits the two
/// row-independent-or-column shapes that stream through hardware), as
/// the `u64`s the `ReadToBases` position arithmetic reads.
fn explode_pos_vals(src: &Source<'_, '_>, pos: &Expr, node: &str) -> Result<Vec<u64>, CoreError> {
    match pos {
        Expr::Number(n) => Ok(vec![*n; src.t.num_rows()]),
        Expr::Col(c) => {
            let not_numeric = |r: usize| {
                CoreError::unsupported(
                    node,
                    format!("position column {} row {r} is not numeric", c.column),
                )
            };
            fn numbers<T: Copy + Into<u64>>(v: &[T]) -> Vec<u64> {
                v.iter().map(|&x| x.into()).collect()
            }
            match src.t.column_at(src.col(c, node)?.0) {
                Column::U8(v) => Ok(numbers(v)),
                Column::U16(v) => Ok(numbers(v)),
                Column::U32(v) => Ok(numbers(v)),
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

fn walk_cigar<T: Copy + Into<u64>>(packed: &[T], node: &str) -> Result<CigarWalk, CoreError> {
    use genesis_types::CigarOp;
    let mut w =
        CigarWalk { out_rows: 0, ref_len: 0, seq_len: 0, has_ins: false, has_del: false };
    for &p in packed {
        let p: u64 = p.into();
        let p = u16::try_from(p).map_err(|_| {
            CoreError::unsupported(node, format!("CIGAR element {p:#x} is wider than 16 bits"))
        })?;
        let elem = genesis_types::CigarElem::unpack(p);
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

/// Walks each row's CIGAR of a flattened CIGAR column (elements `packed`
/// at their width, `lens` per row) and hands `row` the row index and its
/// walk, in row order.
fn walk_rows<T: Copy + Into<u64>>(
    packed: &[T],
    lens: &[u32],
    node: &str,
    mut row: impl FnMut(usize, CigarWalk) -> Result<(), CoreError>,
) -> Result<(), CoreError> {
    let mut at = 0usize;
    for (r, &len) in lens.iter().enumerate() {
        let len = len as usize;
        row(r, walk_cigar(&packed[at..at + len], node)?)?;
        at += len;
    }
    Ok(())
}

/// Prepares an explode leaf: absorbs its input `Scan` into one
/// [`PreparedScan`] whose columns are the `ReadToBases` input streams
/// (POS, CIGAR, then the data columns it streams) with list columns
/// flattened at their width, and derives the output-stream metadata by
/// walking every CIGAR. `PosExplode` synthesizes an all-match CIGAR (one
/// `M` run per row, split at the 13-bit packed run-length limit), so both
/// explodes share the same hardware block — exactly how the library maps
/// them.
///
/// A data column streams when `streams` holds for its output name, under
/// the prefix rule that keeps the `ReadToBases` field layout: `QUAL` when
/// read, `SEQ` when read or when `QUAL` streams. A column that does not
/// stream is checked as one that does, and its output name is
/// [`PreparedScan::unstreamed`].
#[allow(clippy::too_many_lines)]
fn prepare_explode(
    plan: &LogicalPlan,
    catalog: &Catalog,
    each_row: Option<&EachRow>,
    streams: &dyn Fn(&str) -> bool,
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
    let src = source_table(input, catalog, node)?;
    let t = src.t;
    let rows = t.num_rows();
    let pos_vals = explode_pos_vals(&src, &pos_expr, node)?;
    // The data columns in layout order, their output names, and how many
    // of them (a prefix) stream.
    let (cigar_col, mut data, mut names, streamed) = match plan {
        LogicalPlan::ReadExplode { cigar, seq, qual, .. } => {
            let cigar = flatten_list_col(t, src.col(cigar, node)?, node, true)?;
            let quals = qual.is_some() && streams("QUAL");
            let bases = quals || streams("SEQ");
            let mut data = vec![flatten_list_col(t, src.col(seq, node)?, node, bases)?];
            let mut names = vec!["SEQ".to_owned()];
            if let Some(q) = qual {
                data.push(flatten_list_col(t, src.col(q, node)?, node, quals)?);
                names.push("QUAL".to_owned());
            }
            (cigar, data, names, usize::from(bases) + usize::from(quals))
        }
        LogicalPlan::PosExplode { array, .. } => {
            let (ci, name) = src.col(array, node)?;
            let items = streams(name);
            let data = flatten_list_col(t, (ci, name), node, items)?;
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
                vals: Vals::U16(vals),
                lens: Some(lens),
                dtype: None,
            };
            (cigar, vec![data], vec![name.to_owned()], usize::from(items))
        }
        _ => unreachable!(),
    };
    // Derive the output metadata by walking every read's CIGAR, slicing
    // the flattened columns exactly as the hardware streams them.
    let cigar_lens = cigar_col.lens.as_deref().unwrap_or(&[]);
    let seq_lens = data[0].lens.as_deref().unwrap_or(&[]);
    let qual_lens = data.get(1).and_then(|q| q.lens.as_deref());
    let mut out_offsets = Vec::with_capacity(rows + 1);
    out_offsets.push(0usize);
    let mut last_pos = Vec::with_capacity(rows);
    let (mut has_ins, mut has_del) = (false, false);
    let mut ascending = true;
    let mut prev_pos: Option<u64> = None;
    let mut trailing = false;
    let mut row = |r: usize, w: CigarWalk| {
        if w.seq_len > seq_lens[r] as usize {
            return Err(CoreError::unsupported(
                node,
                format!(
                    "row {r}: CIGAR consumes {} sequence bases but {} holds {}",
                    w.seq_len, data[0].name, seq_lens[r]
                ),
            ));
        }
        if let Some(ql) = qual_lens {
            if w.seq_len > ql[r] as usize {
                return Err(CoreError::unsupported(
                    node,
                    format!("row {r}: CIGAR consumes more bases than QUAL provides"),
                ));
            }
            trailing |= w.seq_len < ql[r] as usize;
        }
        trailing |= w.seq_len < seq_lens[r] as usize;
        out_offsets.push(out_offsets[r] + w.out_rows);
        has_ins |= w.has_ins;
        has_del |= w.has_del;
        let start = pos_vals[r];
        let end = start.saturating_add(w.ref_len);
        last_pos.push(end.saturating_sub(1).max(start));
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
        Ok(())
    };
    by_width!(&cigar_col.vals, v => walk_rows(v, cigar_lens, node, &mut row))?;
    data.truncate(streamed);
    if trailing && streamed > 0 {
        trim_to_cigars(&cigar_col, &mut data);
    }
    let data_col = |name: &str, c: &PreparedCol| StreamCol {
        nullable: has_del,
        bounds: c.vals.bounds().down_to_zero(),
        ..StreamCol::new(name, c.decode)
    };
    let mut out_cols = vec![StreamCol {
        nullable: has_ins,
        ascending,
        bounds: Bounds::of(last_pos.iter().copied()).down_to_zero(),
        ..StreamCol::new("POS", Decode::U64)
    }];
    out_cols.extend(data.iter().zip(&names).map(|(c, name)| data_col(name, c)));
    let mut cols = vec![
        PreparedCol {
            name: "POS".to_owned(),
            elem_bytes: 8,
            decode: Decode::U64,
            vals: Vals::U64(pos_vals),
            lens: None,
            dtype: None,
        },
        cigar_col,
    ];
    cols.extend(data);
    Ok(PreparedScan {
        table: src.table.to_owned(),
        rows,
        cols,
        host_only: 0,
        unstreamed: names.split_off(streamed),
        explode: Some(ExplodeSpec { data: streamed, out_cols, out_offsets, last_pos, node }),
        window: None,
        rows_scanned: rows,
        kept: None,
    })
}

/// Cuts each row of the flattened list columns `data` to the bases its
/// CIGAR consumes (`cigar` walked again, as the check above walked it):
/// ReadToBases closes a read on every input's delimiter, so a base past
/// the CIGAR's would hold it forever. Copies only the columns some row of
/// which holds more.
fn trim_to_cigars(cigar: &PreparedCol, data: &mut [PreparedCol]) {
    fn trim<T: Copy>(vals: &[T], lens: &[u32], consumed: &[u32]) -> Vec<T> {
        let mut out = Vec::with_capacity(consumed.iter().map(|&n| n as usize).sum());
        let mut at = 0usize;
        for (&len, &keep) in lens.iter().zip(consumed) {
            out.extend_from_slice(&vals[at..at + keep as usize]);
            at += len as usize;
        }
        out
    }
    let lens = cigar.lens.as_deref().unwrap_or(&[]);
    let mut consumed = Vec::with_capacity(lens.len());
    let walked = by_width!(&cigar.vals, v => walk_rows(v, lens, "", |_, w| {
        consumed.push(w.seq_len as u32);
        Ok(())
    }));
    // The walk succeeded once already.
    debug_assert!(walked.is_ok(), "a CIGAR walk that passed fails");
    for c in data {
        let Some(lens) = c.lens.as_mut().filter(|lens| **lens != consumed) else { continue };
        c.vals = by_width!(&c.vals, v => Vals::from(trim(v, lens, &consumed)));
        lens.clone_from(&consumed);
    }
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
    let src = source_table(reference, catalog, NODE)?;
    let rows = src.t.num_rows();
    if rows != 1 {
        return Err(CoreError::unsupported(
            NODE,
            format!("the window's reference table {} holds {rows} rows, not one", src.table),
        ));
    }
    let base = explode_pos_vals(&src, init_pos, NODE)?[0];
    let values = flatten_list_col(src.t, src.col(array, NODE)?, NODE, true)?;
    let loop_rows = source_table(&each.rows, catalog, NODE)?;
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
        vals: Vals::U64(vals),
        lens: None,
        dtype: None,
    };
    spine.cols.extend([bound(WINDOW_BOUNDS[0], lo), bound(WINDOW_BOUNDS[1], hi.collect())]);
    Ok(PreparedScan {
        table: src.table.to_owned(),
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

/// The table a leaf reads: a scan, or a projection that only selects (and
/// renames) a scan's columns, its names resolved to the scanned table's
/// columns — no column is copied.
struct Source<'p, 'c> {
    /// The scanned table's name.
    table: &'p str,
    t: &'c Table,
    /// The projection's columns, each its name and the scanned column it
    /// reads; `None` reads the scan's own.
    cols: Option<Vec<(String, usize)>>,
}

impl Source<'_, '_> {
    /// Resolves `col` against the leaf's column names ([`find_col`]): the
    /// scanned column it reads and the name the leaf gives it.
    fn col(&self, col: &ColRef, node: &str) -> Result<(usize, &str), CoreError> {
        let fields = self.t.schema().fields();
        match &self.cols {
            None => {
                let ci = schema_col(fields.iter().map(|f| f.name.as_str()), col, node)?;
                Ok((ci, &fields[ci].name))
            }
            Some(cols) => {
                let i = schema_col(cols.iter().map(|(name, _)| name.as_str()), col, node)?;
                Ok((cols[i].1, &cols[i].0))
            }
        }
    }
}

/// The [`Source`] of a leaf's input plan.
fn source_table<'p, 'c>(
    plan: &'p LogicalPlan,
    catalog: &'c Catalog,
    node: &str,
) -> Result<Source<'p, 'c>, CoreError> {
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
    let mut src = Source { table, t, cols: None };
    let Some(items) = items else { return Ok(src) };
    let names = t.schema().fields().iter().map(|f| f.name.as_str());
    let mut cols = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let SelectItem::Expr { expr, alias } = item else { return Err(derived()) };
        let Expr::Col(c) = expr else { return Err(derived()) };
        let ci = schema_col(names.clone(), c, node)?;
        cols.push((item_name(alias.as_deref(), expr, i), ci));
    }
    src.cols = Some(cols);
    Ok(src)
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
