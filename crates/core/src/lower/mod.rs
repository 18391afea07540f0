//! General plan→pipeline lowering (paper §III-D).
//!
//! "SQL queries can be easily parsed into a tree graph where each node
//! represents a table (leaf node) or a relational/computational operator" —
//! this module walks any supported [`LogicalPlan`] tree node by node,
//! mapping each node to hardware modules (Scan → a Memory Reader,
//! Filter → Filter, Join → Joiner, Project → a rename or ALUs,
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
//!
//! This file holds the analysis ([`analyze`] → [`Lowering`]) and what its
//! steps share; each submodule — `bind`, `pushdown`, `bounds`, `build`,
//! `job` — holds one decision and names it in its own header.

mod bind;
mod bounds;
mod build;
mod job;
mod pushdown;
#[cfg(test)]
mod tests;

use crate::builder::PipelineBuilder;
use crate::cost::PipelineProfile;
use crate::device::DeviceConfig;
use crate::error::CoreError;
use bind::{prepare_scans, PreparedScan, Projection};
use bounds::SubBounds;
use build::{build_core, BuildCtx};
use genesis_hw::modules::filter::CmpOp;
use genesis_hw::resource::{pipeline_overhead, shell_overhead, ResourceUsage};
use genesis_hw::System;
use genesis_sql::ast::{BinOp, ColRef, Expr};
use genesis_sql::{Catalog, LogicalPlan};
use job::{Cut, Reach};
pub(crate) use job::{PreparedJob, RunTimes, ShardOut};
use pushdown::{apply_pushdown, push_down, PushedFilter};
pub(crate) use pushdown::shape;
use std::sync::Arc;

/// Largest dense GROUP BY key window (`max - floor + 1` keys) lowered to
/// an on-chip scratchpad histogram (the paper's BQSR covariate tables are
/// bounded the same way).
const MAX_GROUP_DOMAIN: u64 = 1 << 16;

/// The lifted group-domain cap when the device models tiered memory
/// (`GENESIS_TIERS`): histograms no longer need to fit on chip — pages
/// spill to device DRAM and host DRAM — so the bound guards only against
/// absurd allocations, not BRAM capacity.
const MAX_GROUP_DOMAIN_TIERED: u64 = 1 << 27;

/// The group-domain cap in force for `cfg`: lifted when tiered memory
/// backs the scratchpads.
fn group_domain_cap(cfg: &DeviceConfig) -> u64 {
    if cfg.tiers.is_some() { MAX_GROUP_DOMAIN_TIERED } else { MAX_GROUP_DOMAIN }
}

/// How a raw 8-byte output element decodes back into a [`Value`].
///
/// [`Value`]: genesis_types::Value
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
    /// Values other than `Ins`/`Del` (which never match) strictly increase,
    /// within each loop row when the stream carries one item per row
    /// (join-key precondition).
    ascending: bool,
    /// Upper bound on the values, when derivable from the scanned data
    /// (the top of the GROUP BY scratchpad's key window).
    max_value: Option<u64>,
    /// Lower bound on the values (`0` is the trivially valid unsigned
    /// bound; the floor of the GROUP BY scratchpad's key window). Together
    /// with `max_value` this proves computed keys cannot wrap: the
    /// engine's `wrapping_add`/`wrapping_sub` only match a dense
    /// scratchpad domain when no row under- or overflows.
    min_value: u64,
    /// Provenance of the values: `(prepared-scan index, column index)`
    /// when every value streamed unchanged from that scanned column.
    /// Filters, joins, and projections only pass row *subsets* through
    /// (join keys are strictly increasing and unique, so no row ever
    /// duplicates), which lets [`comp_bounds`] compute exact row-aligned
    /// bounds for same-scan arithmetic. `None` for computed values.
    ///
    /// [`comp_bounds`]: bounds::comp_bounds
    origin: Option<(usize, usize)>,
    /// The flit field the column reads. A column-only projection renames,
    /// repeats, reorders and drops columns without touching the flits,
    /// so two columns can read one field and a field can ride along that
    /// no column reads.
    field: usize,
}

impl ColInfo {
    /// A column about which nothing beyond its name and decoding is known.
    fn new(name: &str, decode: Decode) -> ColInfo {
        ColInfo {
            name: name.to_owned(),
            decode,
            nullable: false,
            ascending: false,
            max_value: None,
            min_value: 0,
            origin: None,
            field: 0,
        }
    }
}

/// The `FOR var IN rows` loop a lowering's core runs in (its `ForEach`
/// root): every stream carries one delimited item per loop row — the
/// explode of the loop row and the reference windows emit them — and
/// aggregates reduce per item.
#[derive(Debug, Clone)]
struct EachRow {
    var: String,
    rows: LogicalPlan,
}

/// Why a loop body leaf does not lower.
const LOOP_LEAVES: &str =
    "a loop body reads its loop row through an explode and other tables through reference windows";

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

/// A fully analyzed general lowering: the validated core plan, its
/// host-side epilogues, the output schema, and the cost-model profile.
#[derive(Debug, Clone)]
pub(crate) struct Lowering {
    core: LogicalPlan,
    epilogues: Vec<Epilogue>,
    each_row: Option<Box<EachRow>>,
    /// Filter conjuncts absorbed into scan leaves (the host-side analog
    /// of GenStore's in-storage filtering): re-applied to the freshly
    /// bound scan data every time the lowering binds to a catalog.
    pushed: Vec<PushedFilter>,
    /// The columns each plain scan binds when the lowering binds to a
    /// catalog.
    projection: Projection,
    /// The joins whose right leaf each replica cuts to its reach.
    reaches: Vec<Reach>,
    cols_names: Vec<String>,
    kind: SinkKind,
    /// Device memory one pipeline's scalar aggregate writers allocated in
    /// the analysis build (0 for any other sink).
    sink_bytes: usize,
    /// Port/fabric demand of one pipeline (input to the replication
    /// chooser).
    pub(crate) profile: PipelineProfile,
    /// Human-readable node→module mapping lines, one per node the build
    /// lowered, then one `-> host` line per epilogue: the whole of what
    /// [`crate::compile::PipelinePlan::explain`] says the plan builds.
    pub(crate) summary: Vec<String>,
}

/// Resolves a column reference against stream columns ([`find`]). An
/// unknown column's did-you-mean draws on `cols` and on `unstreamed`, the
/// scanned columns projection pushdown left out of the stream, so it
/// suggests what the whole table would.
fn resolve(
    cols: &[ColInfo],
    unstreamed: &[String],
    col: &ColRef,
    node: &str,
) -> Result<usize, CoreError> {
    let names = cols.iter().map(|c| c.name.as_str());
    find(names.clone(), col).map_err(|hits| {
        if hits.is_empty() {
            return unknown_column(col, names.chain(unstreamed.iter().map(String::as_str)), node);
        }
        let hits: Vec<&str> = hits.iter().map(|&i| cols[i].name.as_str()).collect();
        let want = col.display_name();
        let reason = format!(
            "ambiguous column {want}: matches {} (qualify with a table prefix)",
            hits.join(", ")
        );
        CoreError::plan(node, reason)
    })
}

/// The one of `names` that `col` names under the software engine's rules:
/// an exact display-name match first, then a unique bare-name or
/// `.suffix` match. `Err` holds every match when there is not exactly one.
fn find<'n>(
    names: impl Iterator<Item = &'n str> + Clone,
    col: &ColRef,
) -> Result<usize, Vec<usize>> {
    // `n` is `{prefix}.{column}`: compared in place, with no name formatted.
    let dotted = |n: &str, prefix: &str| {
        n.strip_prefix(prefix)
            .and_then(|rest| rest.strip_prefix('.'))
            .is_some_and(|rest| rest == col.column)
    };
    let exact = |n: &str| match &col.table {
        Some(t) => dotted(n, t),
        None => n == col.column,
    };
    if let Some(i) = names.clone().position(exact) {
        return Ok(i);
    }
    let suffixed = |n: &str| {
        let head = n.strip_suffix(col.column.as_str());
        head.is_some_and(|head| head.is_empty() || head.ends_with('.'))
    };
    let hits: Vec<usize> =
        names.enumerate().filter(|&(_, n)| suffixed(n)).map(|(i, _)| i).collect();
    match hits[..] {
        [i] => Ok(i),
        _ => Err(hits),
    }
}

/// A user plan error (not a lowering gap): `col` names no column. Attach a
/// did-you-mean when one of `names` is close.
fn unknown_column<'n>(col: &ColRef, names: impl Iterator<Item = &'n str>, node: &str) -> CoreError {
    let want = col.display_name();
    let mut reason = format!("unknown column {want}");
    if let Some(s) = crate::env::suggest(&want, names) {
        reason.push_str(&format!(" (did you mean `{s}`?)"));
    }
    CoreError::plan(node, reason)
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

/// Calls `f` on every column reference in `e`.
fn for_each_ref<'e>(e: &'e Expr, f: &mut impl FnMut(&'e ColRef)) {
    match e {
        Expr::Col(c) => f(c),
        Expr::Bin { lhs, rhs, .. } => {
            for_each_ref(lhs, f);
            for_each_ref(rhs, f);
        }
        Expr::Var(_) | Expr::Number(_) => {}
    }
}

/// Whether `r` could resolve, under [`resolve`]'s rules, to a stream
/// column carrying the scanned column `name`: as `name` itself or, behind
/// a join, as `prefix.name`. Exact display names, bare names and
/// `.suffix` matches all reduce to one of the two names ending in the
/// other at a `.` boundary.
fn may_resolve(name: &str, r: &ColRef) -> bool {
    let tail = |long: &str, short: &str| {
        long.strip_suffix(short).is_some_and(|head| head.is_empty() || head.ends_with('.'))
    };
    tail(name, &r.column) || tail(&r.column, name)
}

/// The spine columns [`PreparedJob::shard_ranges`] cuts shards on: the
/// chromosome, then the position.
const CHR_COL: &str = "CHR";
const POS_COLS: [&str; 2] = ["POS", "REFPOS"];

fn is_partition_key(name: &str) -> bool {
    name == CHR_COL || POS_COLS.contains(&name)
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
///
/// Scans are pruned ([`Projection`]): a pruned scan resolves every column
/// reference as the whole table would, and an unknown column's
/// suggestion draws on the columns pruning skipped as well
/// ([`resolve`]), so the analysis runs once.
pub(crate) fn analyze(
    plan: &LogicalPlan,
    catalog: &Catalog,
    cfg: &DeviceConfig,
) -> Result<Arc<Lowering>, CoreError> {
    analyze_on(plan, catalog, cfg).map(|(lowering, _)| lowering)
}

/// [`analyze`], returning the scratch system its build ran on as well.
fn analyze_on(
    plan: &LogicalPlan,
    catalog: &Catalog,
    cfg: &DeviceConfig,
) -> Result<(Arc<Lowering>, System), CoreError> {
    let (core, epilogues) = peel(plan)?;
    let (core, each_row) = match core {
        LogicalPlan::ForEach { var, rows, body } => {
            (&**body, Some(Box::new(EachRow { var: var.clone(), rows: (**rows).clone() })))
        }
        other => (other, None),
    };
    // Predicate pushdown: absorb supported conjuncts of Filters sitting
    // directly above plain Scan leaves into the scans themselves, so the
    // scratch build below (and every job build after it) streams only
    // surviving rows.
    let (core, pushed) = if cfg.pushdown {
        push_down(core, catalog)
    } else {
        (core.clone(), Vec::new())
    };
    // Projection pushdown: the scans bind only the columns the rewritten
    // core reads, plus the pushed conjuncts' operands.
    let projection = Projection::of(&core);
    let mut prepared = Vec::new();
    prepare_scans(&core, catalog, each_row.as_deref(), &projection, &pushed, &mut prepared)?;
    apply_pushdown(&mut prepared, &pushed, None)?;
    let mut summary: Vec<String> = pushed
        .iter()
        .map(|pf| {
            let p = &prepared[pf.scan];
            format!(
                "Pushdown(Scan({})) -> {} conjunct(s) absorbed ({} rows scanned, {} emitted)",
                p.table,
                pf.conjuncts.len(),
                p.rows_scanned,
                p.rows,
            )
        })
        .collect();
    // The analysis streams every leaf whole: one pipeline over the whole
    // spine, whose explain text and profile no replica's cut changes.
    let whole: Vec<Cut> = prepared.iter().map(|p| Cut::rows(0..p.rows)).collect();
    let mut sys = System::with_memory(cfg.mem.clone());
    let sub_bounds = SubBounds::default();
    let scans = (&prepared[..], &sub_bounds);
    let mut ctx = BuildCtx::new(scans, &whole, group_domain_cap(cfg), each_row.is_some(), true);
    let mut b = PipelineBuilder::new(&mut sys, 0);
    let (built, kind) = build_core(&mut b, &mut ctx, &core)?;
    // A grouped aggregate's software row order is engine-defined (key
    // first-appearance order) while the hardware drains keys in ascending
    // order; bit-identical results therefore require the query to pin the
    // order by sorting on the group key.
    if let SinkKind::Grouped(roles) = &kind {
        let ordered = match epilogues.first() {
            Some(Epilogue::Sort { keys }) if !keys.is_empty() => {
                let i = resolve(&built.cols, &[], &keys[0].0, "Sort")?;
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
    let profile = PipelineProfile {
        read_port_bytes: ctx.reads.clone(),
        write_port_bytes: ctx.writes.clone(),
        fabric,
        expansion: ctx.expansion,
        selectivity: selectivity(&prepared),
    };
    summary.extend(ctx.summary);
    // The host replays the peeled epilogues on the merged output.
    summary.extend(epilogues.iter().map(|e| {
        let node = match e {
            Epilogue::Sort { .. } => "Sort",
            Epilogue::Limit { .. } => "Limit",
        };
        format!("{node} -> host")
    }));
    let lowering = Arc::new(Lowering {
        core,
        epilogues,
        each_row,
        pushed,
        projection,
        reaches: ctx.reaches,
        cols_names: built.cols.iter().map(|c| c.name.clone()).collect(),
        kind,
        sink_bytes: ctx.sink_bytes,
        profile,
        summary,
    });
    Ok((lowering, sys))
}

/// Post-pushdown row rate of the spine scan: the fraction of scanned
/// spine rows that survive into the pipeline. Replication splits the
/// spine, so a selective scan shortens every replica's batch — the cost
/// model caps the useful replica count by this rate.
fn selectivity(prepared: &[PreparedScan]) -> f64 {
    let spine = &prepared[0];
    if spine.rows_scanned == 0 {
        1.0
    } else {
        spine.rows as f64 / spine.rows_scanned as f64
    }
}

impl Lowering {
    /// Output column names (the compiled pipeline's schema).
    pub(crate) fn output_columns(&self) -> &[String] {
        &self.cols_names
    }

    /// Binds the lowering to `catalog`'s current data: copies every
    /// column the scans bind so the returned job is `Send` and can run on
    /// a host worker thread (the catalog itself holds non-`Send` custom
    /// modules). `literals` are the values of the shape's pushed
    /// parameters ([`shape`]; `None` binds the analyzed plan's own).
    /// Without an explicit `factor`, replication is chosen here, from the
    /// profile at the bound selectivity: what a fresh compile over this
    /// data with these literals would choose.
    pub(crate) fn prepare(
        self: &Arc<Self>,
        cfg: &DeviceConfig,
        catalog: &Catalog,
        literals: Option<&[u64]>,
        factor: Option<usize>,
    ) -> Result<PreparedJob, CoreError> {
        let mut prepared = Vec::new();
        let each_row = self.each_row.as_deref();
        prepare_scans(&self.core, catalog, each_row, &self.projection, &self.pushed, &mut prepared)?;
        // Re-apply the pushed conjuncts to the freshly bound data (the
        // catalog's tables may have changed since analysis).
        apply_pushdown(&mut prepared, &self.pushed, literals)?;
        let factor = factor.unwrap_or_else(|| {
            let profile =
                PipelineProfile { selectivity: selectivity(&prepared), ..self.profile.clone() };
            crate::compile::choose_replication_for(&profile, cfg).factor
        });
        Ok(PreparedJob {
            lowering: Arc::clone(self),
            cfg: cfg.clone(),
            prepared,
            sub_bounds: SubBounds::default(),
            factor: factor.max(1),
        })
    }
}
