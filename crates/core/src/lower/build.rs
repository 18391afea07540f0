//! Plan node → modules, plan edge → queue: the builder the analysis runs
//! once on a scratch system and every replica runs again on its batch's.

use super::bind::{match_cigar, plan_node_name, PreparedCol, PreparedScan};
use super::bounds::{
    comp_bounds, lower_predicate, narrow_filtered_col, operand, plan_comp, range_stats, CompPlan,
    CompRhs, SubBounds,
};
use super::job::{line_padded, Cut, Reach};
use super::pushdown::conjuncts;
use super::{
    cmp_of, qualify, resolve, ColInfo, Decode, GroupRole, ScalarKind, SinkKind, MAX_GROUP_DOMAIN,
};
use crate::builder::PipelineBuilder;
use crate::error::CoreError;
use genesis_hw::modules::alu::{AluOp, AluRhs, StreamAlu};
use genesis_hw::modules::fanout::Fanout;
use genesis_hw::modules::filter::{Filter, Predicate};
use genesis_hw::modules::joiner::{JoinKind as HwJoinKind, Joiner};
use genesis_hw::modules::mem_reader::RowSpec;
use genesis_hw::modules::Module;
use genesis_hw::modules::reducer::{ReduceOp, Reducer};
use genesis_hw::modules::spm_reader::{SpmReadMode, SpmReader};
use genesis_hw::modules::spm_updater::{RmwOp, SpmUpdateMode, SpmUpdater};
use genesis_hw::modules::zip::{Zip, ZipInput};
use genesis_hw::system::ModuleId;
use genesis_hw::word::MAX_FIELDS;
use genesis_hw::QueueId;
use genesis_sql::ast::{AggFn, ColRef, Expr, JoinKind, SelectItem};
use genesis_sql::LogicalPlan;
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// The build result for one pipeline instance: the writer module and
/// readback address of each output column, and the columns' metadata.
#[derive(Debug)]
pub(super) struct Built {
    pub(super) writers: Vec<(ModuleId, u64)>,
    pub(super) cols: Vec<ColInfo>,
}

/// One in-flight relational stream: a queue of row flits plus per-column
/// metadata. Each column names the flit field it reads
/// ([`ColInfo::field`]), so renaming, repeating, reordering or dropping
/// columns builds no module.
#[derive(Debug)]
struct Stream<'a> {
    q: QueueId,
    cols: Vec<ColInfo>,
    /// Fields per flit of `q`, read by some column or not.
    width: usize,
    /// The scanned columns projection pushdown left out of the stream
    /// ([`PreparedScan::unstreamed`]), named as `cols` would name them:
    /// filters pass them on, joins qualify them, projections and
    /// aggregates drop them.
    unstreamed: Cow<'a, [String]>,
}

impl<'a> Stream<'a> {
    /// A stream whose flits carry `cols` in order, one field each.
    fn fresh(q: QueueId, mut cols: Vec<ColInfo>, unstreamed: Cow<'a, [String]>) -> Stream<'a> {
        for (field, c) in cols.iter_mut().enumerate() {
            c.field = field;
        }
        Stream { q, width: cols.len(), cols, unstreamed }
    }
}

/// Build-time context threaded through the node-by-node lowering.
pub(super) struct BuildCtx<'a> {
    prepared: &'a [PreparedScan],
    /// The same-scan difference bounds of `prepared`, shared by every
    /// build over it.
    sub_bounds: &'a SubBounds,
    /// What this pipeline streams of each prepared leaf; the spine's
    /// rows are `spine_range`.
    cuts: &'a [Cut],
    next_scan: usize,
    spine_range: Range<usize>,
    /// The joins found cuttable (recorded by every build; the analysis
    /// build's are the lowering's [`Lowering::reaches`]).
    ///
    /// [`Lowering::reaches`]: super::Lowering::reaches
    pub(super) reaches: Vec<Reach>,
    pub(super) reads: Vec<usize>,
    pub(super) writes: Vec<usize>,
    uniq: usize,
    /// Whether this build formats its explain lines into `summary`: only
    /// the analysis build explains the plan, so no replica pays for them.
    explain: bool,
    pub(super) summary: Vec<String>,
    /// Largest dense GROUP BY key domain this device admits
    /// ([`MAX_GROUP_DOMAIN`], lifted to [`MAX_GROUP_DOMAIN_TIERED`] when
    /// tiered memory backs the scratchpads).
    ///
    /// [`MAX_GROUP_DOMAIN_TIERED`]: super::MAX_GROUP_DOMAIN_TIERED
    group_domain_cap: u64,
    /// Output rows per input row of the built pipeline (> 1 once an
    /// explode node expands the stream; the Figure 8 cost model throttles
    /// read-port demand by it, see [`PipelineProfile::expansion`]).
    ///
    /// [`PipelineProfile::expansion`]: crate::cost::PipelineProfile::expansion
    pub(super) expansion: f64,
    /// Upper bound on rows any stream in the pipeline can carry (sizes
    /// the stream-sink writer allocations; explodes raise it above the
    /// spine row count).
    rows_bound: usize,
    /// Device memory the scalar aggregate's writers allocated (recorded by
    /// the analysis build so a bind can reserve it up front; the other
    /// sinks' shares are derived per replica or left to the store).
    pub(super) sink_bytes: usize,
    /// The pipeline runs a loop body ([`EachRow`]).
    ///
    /// [`EachRow`]: super::EachRow
    per_row: bool,
    /// The loop row's window bounds, uploaded with its explode and taken
    /// by the window that reads them.
    bounds: Option<(QueueId, QueueId)>,
}

impl<'a> BuildCtx<'a> {
    pub(super) fn new(
        (prepared, sub_bounds): (&'a [PreparedScan], &'a SubBounds),
        cuts: &'a [Cut],
        group_domain_cap: u64,
        per_row: bool,
        explain: bool,
    ) -> BuildCtx<'a> {
        let spine_range = cuts[0].rows.clone();
        let rows_bound = spine_range.len();
        BuildCtx {
            prepared,
            sub_bounds,
            cuts,
            next_scan: 0,
            spine_range,
            reaches: Vec::new(),
            reads: Vec::new(),
            writes: Vec::new(),
            uniq: 0,
            explain,
            summary: Vec::new(),
            group_domain_cap,
            expansion: 1.0,
            rows_bound,
            sink_bytes: 0,
            per_row,
            bounds: None,
        }
    }

    /// The label `{name}.{n}`, unique within the pipeline.
    fn lbl<'n>(&mut self, name: &'n str) -> Tag<'n> {
        self.uniq += 1;
        Tag { scope: None, name, n: self.uniq }
    }

    /// The label `{scope}.{name}.{n}` of a column `name` of table `scope`.
    fn col_lbl<'n>(&mut self, scope: &'n str, name: &'n str) -> Tag<'n> {
        self.uniq += 1;
        Tag { scope: Some(scope), name, n: self.uniq }
    }

    /// Records the explain line `line()` when this build explains.
    fn note(&mut self, line: impl FnOnce() -> String) {
        if self.explain {
            self.summary.push(line());
        }
    }

    /// The next prepared leaf in build order, with its index.
    fn next_leaf(&mut self) -> (usize, &'a PreparedScan) {
        self.next_scan += 1;
        (self.next_scan - 1, &self.prepared[self.next_scan - 1])
    }

    /// Adds the module `make(label)`, labelled like [`BuildCtx::lbl`] in
    /// the pipeline's namespace.
    fn module(
        &mut self,
        b: &mut PipelineBuilder<'_>,
        name: &str,
        make: impl FnOnce(String) -> Box<dyn Module>,
    ) {
        let label = self.lbl(name);
        b.module(label, make);
    }

    /// Adds the module `make(label, out)` writing a fresh queue `out`, the
    /// queue labelled `queue` and the module `module`, in that order.
    fn add(
        &mut self,
        b: &mut PipelineBuilder<'_>,
        (queue, module): (&str, &str),
        make: impl FnOnce(String, QueueId) -> Box<dyn Module>,
    ) -> QueueId {
        let out = b.queue(self.lbl(queue));
        self.module(b, module, |l| make(l, out));
        out
    }
}

/// A module, queue or scratchpad label within one pipeline: `{name}.{n}`,
/// or `{scope}.{name}.{n}` for a table's column. Formatted once, by whoever
/// keeps it.
#[derive(Debug, Clone, Copy)]
struct Tag<'n> {
    scope: Option<&'n str>,
    name: &'n str,
    n: usize,
}

impl fmt::Display for Tag<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(scope) = self.scope {
            write!(f, "{scope}.")?;
        }
        write!(f, "{}.{}", self.name, self.n)
    }
}

/// Builds the full pipeline for the core plan and attaches its sink, whose
/// shape every build of one lowering shares.
pub(super) fn build_core(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    core: &LogicalPlan,
) -> Result<(Built, SinkKind), CoreError> {
    match core {
        LogicalPlan::Aggregate { input, items, group_by } if group_by.is_empty() => {
            build_scalar_agg(b, ctx, input, items)
        }
        LogicalPlan::Aggregate { .. } if ctx.per_row => {
            Err(CoreError::unsupported("ForEach", "a grouped aggregate per loop row"))
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
fn build_node<'a>(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'a>,
    plan: &LogicalPlan,
) -> Result<Stream<'a>, CoreError> {
    match plan {
        LogicalPlan::Scan { .. } => build_scan(b, ctx),
        LogicalPlan::Filter { input, pred } => {
            // A chain of Filters straight over an explode is the
            // explode's guard: it builds no Filter module.
            let mut guard = vec![pred];
            let mut node = &**input;
            while let LogicalPlan::Filter { input, pred } = node {
                guard.push(pred);
                node = input;
            }
            if matches!(node, LogicalPlan::PosExplode { .. } | LogicalPlan::ReadExplode { .. }) {
                guard.reverse();
                return build_explode(b, ctx, &guard);
            }
            let s = build_node(b, ctx, input)?;
            build_filter(b, ctx, s, pred)
        }
        LogicalPlan::Project { input, items } => {
            let s = build_node(b, ctx, input)?;
            build_project(b, ctx, s, items)
        }
        LogicalPlan::Join { kind, left, right, left_key, right_key } => {
            let l = build_node(b, ctx, left)?;
            let leaf = ctx.next_scan;
            let r = build_node(b, ctx, right)?;
            note_reach(ctx, leaf, right, (&l, left_key), (&r, right_key));
            build_join(b, ctx, *kind, l, r, left_key, right_key)
        }
        LogicalPlan::PosExplode { .. } | LogicalPlan::ReadExplode { .. } => {
            build_explode(b, ctx, &[])
        }
        LogicalPlan::Limit { .. } => build_window(b, ctx),
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

/// Records the [`Reach`] of a join whose right input `right`, built from
/// leaf `leaf` on, is `Filter`s over a plain scan keyed on one of its own
/// columns or over a `PosExplode` keyed on its positions, and whose left
/// key streams unchanged from a spine column (its data bounds the cut; the
/// propagated `ColInfo` bounds never do). Any other join is not cut.
fn note_reach(
    ctx: &mut BuildCtx<'_>,
    leaf: usize,
    right: &LogicalPlan,
    (l, left_key): (&Stream<'_>, &ColRef),
    (r, right_key): (&Stream<'_>, &ColRef),
) {
    let mut node = right;
    while let LogicalPlan::Filter { input, .. } = node {
        node = input;
    }
    let (Ok(li), Ok(ri)) =
        (resolve(&l.cols, &[], left_key, "Join"), resolve(&r.cols, &[], right_key, "Join"))
    else {
        return;
    };
    let Some((0, spine)) = l.cols[li].origin else { return };
    let key = match node {
        LogicalPlan::Scan { .. } => match r.cols[ri].origin {
            Some((scan, key)) if scan == leaf => key,
            _ => return,
        },
        LogicalPlan::PosExplode { .. } if ri == 0 => 0,
        _ => return,
    };
    ctx.reaches.push(Reach { leaf, key, spine });
}

/// Uploads the `items` a trimmed `PosExplode` cut keeps of its `rows`
/// ([`PreparedScan::reach`]) as sub-slices of the prepared POS, CIGAR and,
/// when it streams, value columns. Only the edge rows are new: the first
/// row's position advances to its first kept item, and the first and last
/// rows' match CIGARs are re-synthesised for the items they keep, as
/// `bind::prepare_explode` synthesises every row's. Returns the queues.
fn upload_trimmed(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    ps: &PreparedScan,
    rows: &Range<usize>,
    items: &Range<usize>,
) -> Result<Vec<QueueId>, CoreError> {
    let ([pos, cigar, data @ ..], Some(spec)) = (&ps.cols[..], &ps.explode) else {
        return Err(CoreError::Host("a trimmed explode is a PosExplode join leaf".into()));
    };
    let off = &spec.out_offsets;
    let (first, last) = (rows.start, rows.end - 1);
    // Each row keeps at most its own items, whose count was a `u32`.
    let kept = |r: usize| (items.end.min(off[r + 1]) - items.start.max(off[r])) as u32;
    let runs = cigar.lens.as_deref().unwrap_or(&[]);
    let inner = first + 1..last.max(first + 1);
    let (mut head, mut tail) = (Vec::new(), Vec::new());
    let mut cigar_lens = Vec::with_capacity(rows.len());
    cigar_lens.push(match_cigar(kept(first), &mut head)?);
    cigar_lens.extend_from_slice(&runs[inner.clone()]);
    if last > first {
        cigar_lens.push(match_cigar(kept(last), &mut tail)?);
    }
    let inner_start: usize = runs[..inner.start].iter().map(|&l| l as usize).sum();
    let inner_len: usize = runs[inner].iter().map(|&l| l as usize).sum();
    let inner_cigar = &cigar.vals[inner_start..inner_start + inner_len];
    let first_pos = pos.vals[first].saturating_add((items.start - off[first]) as u64);
    let mut upload = |c: &PreparedCol, parts: &[&[u64]], spec: RowSpec| {
        let label = ctx.col_lbl(&ps.table, &c.name);
        ctx.reads.push(c.elem_bytes);
        b.upload_parts(label, parts, c.elem_bytes, spec)
    };
    let mut qs = vec![
        upload(pos, &[&[first_pos], &pos.vals[first + 1..rows.end]], RowSpec::Fixed(1)),
        upload(cigar, &[&head, inner_cigar, &tail], RowSpec::Lens(Arc::from(cigar_lens))),
    ];
    for c in data {
        let lens = RowSpec::Lens(rows.clone().map(kept).collect());
        qs.push(upload(c, &[&c.vals[items.clone()]], lens));
    }
    Ok(qs)
}

/// Lowers an explode leaf: one Memory Reader per `ReadToBases` input
/// stream (POS delimited per row, list columns delimited by their run
/// lengths) and the `ReadToBases` genomics block from the module library,
/// which emits the plain row stream every downstream module expects (in a
/// loop body, one item per read, narrowed by a Zip). The conjuncts of
/// `guard`, the Filters straight over the explode, become the block's
/// guard (`ReadToBases::with_guard`): it drops the rows they fail where
/// it produces them. Expansion (output rows per input row) is recorded
/// for the Figure 8 replication profile.
fn build_explode<'a>(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'a>,
    guard: &[&Expr],
) -> Result<Stream<'a>, CoreError> {
    use genesis_hw::modules::read_to_bases::{ReadToBases, ReadToBasesInputs};
    let (idx, ps) = ctx.next_leaf();
    let spec = ps
        .explode
        .as_ref()
        .ok_or_else(|| CoreError::Host("explode node over a plain scan leaf".into()))?;
    let cuts = ctx.cuts;
    let range = cuts[idx].rows.clone();
    let table = &ps.table;
    let mut qs = Vec::with_capacity(ps.cols.len());
    if let Some(items) = &cuts[idx].items {
        qs = upload_trimmed(b, ctx, ps, &range, items)?;
    }
    for c in &ps.cols[qs.len()..] {
        let label = ctx.col_lbl(table, &c.name);
        let q = match &c.lens {
            // One delimiter per row keeps POS aligned with the per-read
            // runs of the list streams.
            None => b.upload_column(
                label,
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
                b.upload_column(
                    label,
                    &c.vals[flat_start..flat_start + flat_len],
                    c.elem_bytes,
                    rows,
                )
            }
        };
        ctx.reads.push(c.elem_bytes);
        qs.push(q);
    }
    // POS and CIGAR, then the data columns the explode streams.
    let data = spec.data;
    let inputs = ReadToBasesInputs {
        pos: qs[0],
        cigar: qs[1],
        seq: (data > 0).then(|| qs[2]),
        qual: (data > 1).then(|| qs[3]),
    };
    // Columns past the explode's inputs are the loop row's window bounds.
    if let &[start, end] = &qs[2 + data..] {
        ctx.bounds = Some((start, end));
    }
    let out_rows = cuts[idx].items.clone().unwrap_or_else(|| ps.items_of(&range)).len();
    let in_rows = range.len().max(1);
    ctx.expansion = ctx.expansion.max(out_rows as f64 / in_rows as f64);
    ctx.rows_bound = ctx.rows_bound.max(out_rows);
    let per_row = ctx.per_row;
    ctx.note(|| {
        format!(
            "{}({table}) -> {}x MemoryReader + ReadToBases{} ({out_rows} rows from {})",
            spec.node,
            ps.cols.len(),
            if per_row { " + Zip" } else { "" },
            range.len(),
        )
    });
    let mut cols = spec.out_cols.clone();
    // Within one read the aligned positions strictly increase.
    cols[0].ascending |= ctx.per_row;
    // An uncut spine bounds its positions by its own slice, as a plain
    // scan does: a row emits no position before its start or after its
    // last reference position. Any other leaf keeps its whole bounds, so
    // a cut never admits a plan the whole leaf refuses.
    if idx == 0 && cuts[idx].items.is_none() {
        let starts = ps.cols[0].vals[range.clone()].iter().min();
        if let (Some(&lo), Some(&hi)) = (starts, spec.last_pos[range].iter().max()) {
            cols[0].min_value = lo;
            cols[0].max_value = Some(hi);
        }
    }
    // The rows are [REFPOS(, BASE(, QUAL))]. Outside a loop body the
    // ReadToBases emits them plain; a loop body keeps its per-read items
    // and selects them with a Zip.
    let width = 1 + data;
    let bases = b.queue(ctx.lbl("explode.bases"));
    let mut s = Stream::fresh(bases, cols, Cow::Borrowed(&ps.unstreamed));
    let mut preds = Vec::new();
    for pred in guard {
        preds.extend(lower_conjuncts(&mut s, pred)?);
    }
    if !guard.is_empty() {
        let n = preds.len();
        let plural = if n == 1 { "" } else { "s" };
        ctx.note(|| format!("Filter -> ReadToBases guard ({n} predicate{plural})"));
    }
    ctx.module(b, "explode.rtb", |l| {
        let rtb = ReadToBases::new(l, inputs, bases).with_guard(preds);
        Box::new(if per_row { rtb } else { rtb.with_rows(width) })
    });
    if per_row {
        let items = vec![ZipInput::new(bases, (0..width).collect())];
        s.q = ctx.add(b, ("explode.rows", "explode.zip"), |l, out| {
            Box::new(Zip::new(l, items, out))
        });
    }
    Ok(s)
}

/// Lowers a reference window (`bind::prepare_window`): the scratchpad load and
/// gated range-mode SPM Reader of [`PipelineBuilder::ref_window`], reading
/// each loop row's bounds from the queues its explode uploaded, so the
/// window emits one item per loop row.
fn build_window<'a>(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'a>,
) -> Result<Stream<'a>, CoreError> {
    let (idx, ps) = ctx.next_leaf();
    let (Some(base), Some((start, end))) = (ps.window, ctx.bounds.take()) else {
        return Err(CoreError::Host("reference window without its loop-row bounds".into()));
    };
    let values = &ps.cols[0];
    let label = ctx.col_lbl(&ps.table, &values.name);
    let width = values.elem_bytes;
    // The scratchpad holds the replica's reach, its offset moved to the
    // first position the reach holds.
    let reach = ctx.cuts[idx].items.clone().unwrap_or_else(|| ps.items_of(&(0..1)));
    let first = base.saturating_add(reach.start as u64);
    let loaded = &values.vals[reach];
    let refs = b.ref_window(&[(label, loaded, width, width * 8)], start, end, first);
    ctx.reads.push(width);
    ctx.note(|| format!("Limit({}) -> MemoryReader + SpmUpdater + SpmReader(range)", ps.table));
    let last = base.saturating_add((values.vals.len() as u64).saturating_sub(1));
    let pos = ColInfo {
        ascending: true,
        max_value: Some(last),
        min_value: base,
        ..ColInfo::new("POS", Decode::U64)
    };
    let top = values.vals.iter().copied().max();
    let data = ColInfo { max_value: top, ..ColInfo::new(&values.name, values.decode) };
    Ok(Stream::fresh(refs, vec![pos, data], Cow::Borrowed(&[])))
}

/// Lowers a plain scan: one streamed column is one Memory Reader, and
/// two or more are one multi-lane Memory Reader whose flits are the rows,
/// column `i` in field `i` — no per-column readers and no Zip.
fn build_scan<'a>(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'a>,
) -> Result<Stream<'a>, CoreError> {
    let (idx, ps) = ctx.next_leaf();
    let range = ctx.cuts[idx].rows.clone();
    let streamed = ps.streamed();
    let ncols = streamed.len();
    if ncols == 0 {
        return Err(CoreError::unsupported(
            format!("Scan({})", ps.table),
            "table has no columns",
        ));
    }
    let table = &ps.table;
    let mut lanes = Vec::with_capacity(ncols);
    let mut cols = Vec::with_capacity(ncols);
    for (ci, c) in streamed.iter().enumerate() {
        let vals = &c.vals[range.clone()];
        lanes.push((vals, c.elem_bytes));
        ctx.reads.push(c.elem_bytes);
        // A leaf other than the spine is checked whole, however far a cut
        // reaches: a cut never admits a plan the whole leaf refuses.
        let seen = if idx == 0 { vals } else { &c.vals[..] };
        let (ascending, min_value, max_value) = range_stats(seen);
        cols.push(ColInfo {
            ascending,
            max_value,
            min_value,
            origin: Some((idx, ci)),
            ..ColInfo::new(&c.name, c.decode)
        });
    }
    let q = if let [(vals, elem_bytes)] = lanes[..] {
        let label = ctx.col_lbl(table, &streamed[0].name);
        b.upload_column(label, vals, elem_bytes, RowSpec::None)
    } else {
        b.upload_rows(ctx.col_lbl(table, "rows"), &lanes)
    };
    let unstreamed = ps.unstreamed.len();
    ctx.note(|| {
        let count = if ncols == 1 { "1x " } else { "" };
        let columns = match unstreamed {
            0 if ncols == 1 => String::new(),
            0 => format!(" ({ncols} columns)"),
            unstreamed => format!(" ({ncols} of {} columns)", ncols + unstreamed),
        };
        format!("Scan({table}) -> {count}MemoryReader{columns}")
    });
    Ok(Stream::fresh(q, cols, Cow::Borrowed(&ps.unstreamed)))
}

/// Lowers a Filter to a chain of one `Filter` module per conjunct.
fn build_filter<'a>(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    mut s: Stream<'a>,
    pred: &Expr,
) -> Result<Stream<'a>, CoreError> {
    let preds = lower_conjuncts(&mut s, pred)?;
    let n = preds.len();
    ctx.note(|| format!("Filter -> {n}x Filter"));
    for hw in preds {
        let q = s.q;
        s.q = ctx.add(b, ("filter", "filter"), |l, out| Box::new(Filter::new(l, hw, q, out)));
    }
    Ok(s)
}

/// Lowers `pred`'s conjuncts against `s`'s columns to the predicates the
/// `Filter`s or an explode's guard evaluate, and narrows the columns the
/// survivors bound.
fn lower_conjuncts(s: &mut Stream<'_>, pred: &Expr) -> Result<Vec<Predicate>, CoreError> {
    let mut parts = Vec::new();
    conjuncts(pred, &mut parts);
    let preds = parts
        .iter()
        .map(|part| lower_predicate(&s.cols, &s.unstreamed, part))
        .collect::<Result<Vec<_>, _>>()?;
    for part in &parts {
        narrow_filtered_col(&mut s.cols, part);
    }
    Ok(preds)
}

/// One expanded output item of a projection.
enum ProjItem {
    Pass { src: usize, name: String },
    Comp { plan: CompPlan, name: String, decode: Decode },
}

#[allow(clippy::too_many_lines)]
fn build_project<'a>(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    s: Stream<'_>,
    items: &[SelectItem],
) -> Result<Stream<'a>, CoreError> {
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
                    let src = resolve(&s.cols, &s.unstreamed, c, "Project")?;
                    let name = alias.clone().unwrap_or_else(|| c.display_name());
                    expanded.push(ProjItem::Pass { src, name });
                }
                Expr::Bin { op, lhs, rhs } => {
                    let (Some(lo), Some(ro)) = (
                        operand(&s.cols, &s.unstreamed, lhs)?,
                        operand(&s.cols, &s.unstreamed, rhs)?,
                    ) else {
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
    let (prepared, sub_bounds) = (ctx.prepared, ctx.sub_bounds);
    let mut out_cols: Vec<ColInfo> = expanded
        .iter()
        .map(|item| match item {
            ProjItem::Pass { src, name } => ColInfo { name: name.clone(), ..s.cols[*src].clone() },
            ProjItem::Comp { plan, name, decode } => {
                let (min_value, max_value) =
                    comp_bounds(&s.cols, prepared, sub_bounds, plan, *decode);
                ColInfo { max_value, min_value, ..ColInfo::new(name, *decode) }
            }
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
        // Column selection only: the columns name fields of the same flits.
        ctx.note(|| "Project -> rename".to_owned());
        let unstreamed = Cow::Borrowed(&[][..]);
        return Ok(Stream { q: s.q, cols: out_cols, width: s.width, unstreamed });
    }

    // Computed items assemble a new row: each pass-through field once,
    // then one field per computed item, in item order.
    let mut pass_fields: Vec<usize> = Vec::new();
    for (c, item) in out_cols.iter_mut().zip(&expanded) {
        if let ProjItem::Pass { .. } = item {
            c.field = slot(&mut pass_fields, c.field);
        }
    }
    let mut width = pass_fields.len();
    for (c, item) in out_cols.iter_mut().zip(&expanded) {
        if let ProjItem::Comp { .. } = item {
            c.field = width;
            width += 1;
        }
    }
    // Each computed item is one ALU reading its operands in place from
    // the row (a negated comparison adds an XOR). A Fanout feeds the row
    // to its consumers, the pass-through fields and each ALU, only when
    // there is more than one.
    let consumers = comps.len() + usize::from(!pass_fields.is_empty());
    let row_qs = if consumers == 1 {
        vec![s.q]
    } else {
        let qs: Vec<QueueId> = (0..consumers).map(|_| b.queue(ctx.lbl("proj.b"))).collect();
        ctx.module(b, "proj.fan", |l| Box::new(Fanout::new(l, s.q, qs.clone())));
        qs
    };
    let mut row_qs = row_qs.into_iter();
    let mut zip_inputs = Vec::with_capacity(consumers);
    if !pass_fields.is_empty() {
        let row = row_qs.next().expect("one row queue per consumer");
        zip_inputs.push(ZipInput::new(row, pass_fields));
    }
    let mut alu_count = 0usize;
    for (comp, row) in comps.into_iter().zip(row_qs) {
        let lhs = s.cols[comp.lhs_field].field;
        let rhs = match comp.rhs {
            CompRhs::Lit(n) => AluRhs::Const(n),
            CompRhs::Field(f) => AluRhs::Field(s.cols[f].field),
        };
        let mut res = ctx.add(b, ("proj.alu", "proj.alu"), |l, out| {
            Box::new(StreamAlu::new(l, comp.op, row, lhs, rhs, out))
        });
        alu_count += 1;
        if comp.negate {
            alu_count += 1;
            let cmp = res;
            res = ctx.add(b, ("proj.neg", "proj.neg"), |l, out| {
                Box::new(StreamAlu::new(l, AluOp::Xor, cmp, 0, AluRhs::Const(1), out))
            });
        }
        zip_inputs.push(ZipInput::new(res, vec![0]));
    }
    let (q, zip) = if let [one] = &zip_inputs[..] {
        (one.queue, "")
    } else {
        let q = ctx
            .add(b, ("proj.rows", "proj.zip"), |l, out| Box::new(Zip::new(l, zip_inputs, out)));
        (q, "1x Zip + ")
    };
    ctx.note(|| format!("Project -> {}{zip}{alu_count}x ALU", fanout_note(consumers)));
    Ok(Stream { q, cols: out_cols, width, unstreamed: Cow::Borrowed(&[]) })
}

fn build_join<'a>(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    kind: JoinKind,
    l: Stream<'a>,
    r: Stream<'a>,
    left_key: &ColRef,
    right_key: &ColRef,
) -> Result<Stream<'a>, CoreError> {
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
    let li = resolve(&l.cols, &l.unstreamed, left_key, "Join")?;
    let ri = resolve(&r.cols, &r.unstreamed, right_key, "Join")?;
    for (side, col) in [("left", &l.cols[li]), ("right", &r.cols[ri])] {
        if col.decode != Decode::U64 {
            return Err(CoreError::unsupported(
                "Join",
                format!("{side} key {} must be an integer column", col.name),
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
    if nl + nr > MAX_FIELDS {
        return Err(CoreError::unsupported(
            "Join",
            format!("{nl} left + {nr} right fields exceed the {MAX_FIELDS}-field flit"),
        ));
    }
    // Fields no column reads ride along until both flits no longer fit
    // one: then each side carries only the fields its columns read.
    let (lq, rq) = (l.q, r.q);
    let (l, r) = if l.width + r.width > MAX_FIELDS {
        (compact(b, ctx, l), compact(b, ctx, r))
    } else {
        (l, r)
    };
    let zips = usize::from(l.q != lq) + usize::from(r.q != rq);
    let (lk, rk) = (l.cols[li].field, r.cols[ri].field);
    // The Joiner compares both rows' keys in place and keeps both flits
    // whole: the output is [left fields..., right fields...]. An
    // unmatched left row pads every right field, its key included, with
    // NULL.
    let (lq, rq, wl, wr) = (l.q, r.q, l.width, r.width);
    let out = ctx.add(b, ("join.out", "join"), |l, out| {
        let joiner = Joiner::new(l, hw_kind, lq, rq, out, wl - 1, wr - 1);
        Box::new(joiner.with_left_key(lk).with_right_key(rk))
    });
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
            field: wl + c.field,
            ..c.clone()
        });
    }
    let unstreamed = if l.unstreamed.is_empty() && r.unstreamed.is_empty() {
        Cow::Borrowed(&[][..])
    } else {
        let left = l.unstreamed.iter().map(|n| qualify(left_key.table.as_deref(), n));
        let right = r.unstreamed.iter().map(|n| qualify(right_key.table.as_deref(), n));
        Cow::Owned(left.chain(right).collect())
    };
    ctx.note(|| {
        let zips = if zips > 0 { format!("{zips}x Zip + ") } else { String::new() };
        format!("Join({kind:?}) -> {zips}Joiner")
    });
    Ok(Stream { q: out, cols, width: wl + wr, unstreamed })
}

/// `s` carrying only the fields its columns read, each once: through one
/// select Zip when its flits carry any other.
fn compact<'a>(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    mut s: Stream<'a>,
) -> Stream<'a> {
    let mut fields: Vec<usize> = Vec::new();
    for c in &mut s.cols {
        c.field = slot(&mut fields, c.field);
    }
    if !fields.iter().copied().eq(0..s.width) {
        s.width = fields.len();
        let kept = vec![ZipInput::new(s.q, fields)];
        s.q = ctx.add(b, ("join.cut", "join.zip"), |l, out| Box::new(Zip::new(l, kept, out)));
    }
    s
}

/// The index of `f` in `fields`, pushed first when absent.
fn slot(fields: &mut Vec<usize>, f: usize) -> usize {
    fields.iter().position(|&g| g == f).unwrap_or_else(|| {
        fields.push(f);
        fields.len() - 1
    })
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
) -> Result<(Built, SinkKind), CoreError> {
    let s = build_node(b, ctx, input)?;
    struct Spec {
        kind: ScalarKind,
        field: usize,
        /// Rows the aggregate skips: marker rows for MIN/MAX, rows
        /// failing the comparison `SUM` counts.
        filter: Option<Predicate>,
        name: String,
    }
    let mut specs = Vec::with_capacity(items.len());
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
                Spec { kind: ScalarKind::Count, field: 0, filter: None, name }
            }
            (AggFn::Min | AggFn::Max, None) => {
                return Err(CoreError::unsupported(
                    "Aggregate",
                    "MIN/MAX need a column argument",
                ))
            }
            (_, Some(Expr::Col(c))) => {
                let col = &s.cols[resolve(&s.cols, &s.unstreamed, c, "Aggregate")?];
                let field = col.field;
                match func {
                    AggFn::Count => Spec { kind: ScalarKind::Count, field, filter: None, name },
                    AggFn::Sum => {
                        // U64 and Bool columns both sum (booleans as 0/1);
                        // the Reducer skips sentinel fields like the engine.
                        Spec { kind: ScalarKind::Sum, field, filter: None, name }
                    }
                    AggFn::Min | AggFn::Max => {
                        if ctx.per_row {
                            return Err(CoreError::unsupported(
                                "Aggregate",
                                "MIN/MAX per loop row (an empty row yields NULL)",
                            ));
                        }
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
                        let filter = col.nullable.then(|| Predicate::field_is_value(field));
                        Spec { kind, field, filter, name }
                    }
                }
            }
            // SUM over a comparison counts the rows where it holds: a
            // Filter (markers compare unequal in both engines) and a COUNT.
            (AggFn::Sum, Some(cmp @ Expr::Bin { op, .. })) if cmp_of(*op).is_some() => {
                let filter = Some(lower_predicate(&s.cols, &s.unstreamed, cmp)?);
                Spec { kind: ScalarKind::Count, field: 0, filter, name }
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
        let qs: Vec<QueueId> = (0..specs.len()).map(|_| b.queue(ctx.lbl("agg.b"))).collect();
        ctx.module(b, "agg.fan", |l| Box::new(Fanout::new(l, s.q, qs.clone())));
        qs
    };
    let mut writers = Vec::with_capacity(specs.len());
    let mut cols = Vec::with_capacity(specs.len());
    for (spec, &bq) in specs.iter().zip(&branch_qs) {
        let src = if let Some(pred) = spec.filter {
            let tags = ("agg.filter", "agg.filter");
            ctx.add(b, tags, |l, out| Box::new(Filter::new(l, pred, bq, out)))
        } else {
            bq
        };
        let op = match spec.kind {
            ScalarKind::Count => ReduceOp::Count,
            ScalarKind::Sum => ReduceOp::Sum,
            ScalarKind::Min => ReduceOp::Min,
            ScalarKind::Max => ReduceOp::Max,
        };
        let rq = ctx.add(b, ("agg.red", "agg.red"), |l, out| {
            Box::new(Reducer::new(l, op, spec.field, src, out))
        });
        // A Reducer emits once per item: per loop row in a loop body, else
        // once per whole input stream — not a sustained memory port, so
        // that writer stays out of the cost profile. A GROUP BY drain is
        // not one either (`attach_writers`): only a stream is.
        let rows = if ctx.per_row { ctx.spine_range.len() } else { 1 };
        let (writer, addr) = b.writer(ctx.lbl("agg.out"), rq, 8, rows * 8);
        ctx.sink_bytes += line_padded(rows * 8);
        if ctx.per_row {
            ctx.writes.push(8);
        }
        writers.push((writer, addr));
        cols.push(ColInfo::new(&spec.name, Decode::U64));
    }
    let n = specs.len();
    let filtered = specs.iter().filter(|spec| spec.filter.is_some()).count();
    ctx.note(|| {
        let filters = match filtered {
            0 => String::new(),
            f => format!("{f}x Filter + "),
        };
        format!("Aggregate -> {}{filters}{n}x Reducer + {n}x MemoryWriter", fanout_note(n))
    });
    let kind = if ctx.per_row {
        SinkKind::Stream
    } else {
        SinkKind::Scalar(specs.iter().map(|spec| spec.kind).collect())
    };
    Ok((Built { writers, cols }, kind))
}

#[allow(clippy::too_many_lines)]
fn build_grouped_agg(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    input: &LogicalPlan,
    items: &[SelectItem],
    group_by: &[ColRef],
) -> Result<(Built, SinkKind), CoreError> {
    let s = build_node(b, ctx, input)?;
    let [key] = group_by else {
        return Err(CoreError::unsupported(
            "Aggregate(GROUP BY)",
            "multi-column grouping needs a composite-key scratchpad",
        ));
    };
    let ki = resolve(&s.cols, &s.unstreamed, key, "Aggregate")?;
    let kcol = s.cols[ki].clone();
    let kf = kcol.field;
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
    // The scratchpad holds the keys' window `[floor, max_key]`: the
    // updaters subtract the floor and the drain adds it back.
    let floor = if kcol.decode == Decode::Bool { 0 } else { kcol.min_value.min(max_key) };
    let width = max_key - floor;
    if width >= ctx.group_domain_cap {
        let cap = ctx.group_domain_cap;
        let hint = if cap == MAX_GROUP_DOMAIN {
            " (enable tiered memory via GENESIS_TIERS to spill larger histograms)"
        } else {
            ""
        };
        // The window can span all of `u64` (a key column holding both 0
        // and `u64::MAX`), so even the human-readable width must not add
        // 1 unchecked.
        return Err(CoreError::unsupported(
            "Aggregate(GROUP BY)",
            format!(
                "key domain {} exceeds the {cap}-entry scratchpad budget{hint}",
                width.saturating_add(1)
            ),
        ));
    }
    // Guarded above: `width < cap <= 2^27`, so `+ 1` cannot overflow.
    let domain = (width + 1) as usize;
    // Classify items; SUM columns share one histogram per distinct field.
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
                        let i = resolve(&s.cols, &s.unstreamed, c, "Aggregate")?;
                        let sum_slot = slot(&mut sum_fields, s.cols[i].field);
                        GItem { role: GroupRole::Sum, sum_slot, name }
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
    // One RMW updater per histogram, each reading the key and its value
    // in place from the row.
    let cnt_spm = b.system().spms_mut().add(ctx.lbl("GRP_CNT").to_string(), domain, 8);
    let sum_spms: Vec<_> = (0..sum_fields.len())
        .map(|_| {
            let label = ctx.lbl("GRP_SUM").to_string();
            b.system().spms_mut().add(label, domain, 8)
        })
        .collect();
    // Each updater but the last forwards its input to the next, which
    // reads the same rows; the last one's done signal triggers the drain.
    let rmw = |op| SpmUpdateMode::Rmw { op };
    let updaters = std::iter::once(("grp.count", cnt_spm, RmwOp::Increment, 0)).chain(
        sum_spms.iter().zip(&sum_fields).map(|(&spm, &field)| ("grp.sum", spm, RmwOp::Add, field)),
    );
    let mut tap = s.q;
    let last = sum_fields.len();
    for (i, (module, spm, op, field)) in updaters.enumerate() {
        let queue = if i == last { "grp.done" } else { "grp.fwd" };
        tap = ctx.add(b, (queue, module), |l, out| {
            let u = SpmUpdater::new(l, spm, rmw(op), kf, field, tap).with_addr_offset(floor);
            Box::new(if i == last { u.with_done_signal(out) } else { u.with_forward(out) })
        });
    }
    // Drain all histograms once updates finish: [key, count, sums...],
    // nonempty keys only (the engine emits no empty groups).
    let mut spms = vec![cnt_spm];
    spms.extend(sum_spms.iter().copied());
    let drain = ctx.add(b, ("grp.drain", "grp.drain"), |l, out| {
        let mode = SpmReadMode::Drain { trigger: tap, len: domain as u64 };
        Box::new(SpmReader::new(l, spms, mode, floor, out).with_skip_empty())
    });
    // The writer stores each item's field of the drained row.
    let fields: Vec<usize> = gitems
        .iter()
        .map(|gi| match gi.role {
            GroupRole::Key => 0,
            GroupRole::Count => 1,
            GroupRole::Sum => 2 + gi.sum_slot,
        })
        .collect();
    let writers = attach_writers(b, ctx, drain, &fields, domain * 8, "grp.out");
    let cols: Vec<ColInfo> = gitems
        .iter()
        .map(|gi| {
            let key = gi.role == GroupRole::Key;
            let decode = if key { kcol.decode } else { Decode::U64 };
            ColInfo { ascending: key, ..ColInfo::new(&gi.name, decode) }
        })
        .collect();
    let updaters = 1 + sum_fields.len();
    ctx.note(|| {
        format!("Aggregate(GROUP BY) -> {updaters}x SpmUpdater + SpmReader + MemoryWriter")
    });
    let kind = SinkKind::Grouped(gitems.iter().map(|gi| gi.role).collect());
    Ok((Built { writers, cols }, kind))
}

/// Attaches one Memory Writer to the row stream, writing each of
/// `fields` to its own output column of `capacity_bytes`. Returns the
/// writer and readback address of each column.
///
/// Whether those columns are sustained write ports of the cost profile
/// is the caller's: a stream sink's writer takes a row a cycle at the
/// stream's rate, and a GROUP BY drain's writes once per non-empty key
/// after its stream has ended, as a Reducer's writes once per item.
fn attach_writers(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    rows_q: QueueId,
    fields: &[usize],
    capacity_bytes: usize,
    tag: &str,
) -> Vec<(ModuleId, u64)> {
    let (writer, addrs) = b.row_writer(ctx.lbl(tag), rows_q, fields, 8, capacity_bytes);
    addrs.into_iter().map(|addr| (writer, addr)).collect()
}

/// The explain text of the Fanout feeding `branches` consumers: none for
/// one.
fn fanout_note(branches: usize) -> &'static str {
    if branches > 1 { "Fanout + " } else { "" }
}

fn build_stream_sink(
    b: &mut PipelineBuilder<'_>,
    ctx: &mut BuildCtx<'_>,
    s: Stream<'_>,
) -> Result<(Built, SinkKind), CoreError> {
    // Explodes can emit more rows than the spine slice carries; the
    // writer allocation must cover the expanded bound.
    let bound = ctx.rows_bound.max(1) * 8;
    let fields: Vec<usize> = s.cols.iter().map(|c| c.field).collect();
    // The one sustained write port: every output column at the stream's
    // rate, 8 bytes a row.
    ctx.writes.extend(std::iter::repeat_n(8, fields.len()));
    let writers = attach_writers(b, ctx, s.q, &fields, bound, "out");
    ctx.note(|| "Output -> MemoryWriter".to_owned());
    Ok((Built { writers, cols: s.cols }, SinkKind::Stream))
}
