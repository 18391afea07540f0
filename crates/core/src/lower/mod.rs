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
use crate::device::{DeviceConfig, SystemPool};
use crate::error::CoreError;
use bind::{prepare_scans, PreparedScan, Projection};
use bounds::SubBounds;
use build::{build_core, BuildCtx};
use genesis_hw::modules::filter::CmpOp;
use genesis_hw::resource::{pipeline_overhead, shell_overhead, ResourceUsage};
use genesis_hw::System;
use genesis_sql::ast::{AggFn, BinOp, ColRef, Expr};
use genesis_sql::exec::find_col;
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::{DataType, Schema};
use job::{Cut, Reach};
pub(crate) use job::{PreparedJob, RunTimes, ShardOut};
pub(crate) use pushdown::shape;
use pushdown::{push_down, Literals, PushedFilter};
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

/// What a stream column's 8-byte words hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decode {
    /// Plain unsigned integer.
    U64,
    /// 0/1 boolean (the software engine's `Bool` cells).
    Bool,
}

/// Static knowledge about one column of an in-flight hardware stream.
#[derive(Debug, Clone)]
struct StreamCol {
    /// Its name, by the SQL engine's naming rules (`exec::item_name`).
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

impl StreamCol {
    /// A column about which nothing beyond its name and decoding is known.
    fn new(name: &str, decode: Decode) -> StreamCol {
        StreamCol {
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

/// Host-side `Sort`/`Limit` steps, run on the merged hardware output by
/// the software engine's own functions ([`Lowering::apply_epilogues`]).
#[derive(Debug, Clone)]
enum Epilogue {
    Sort { keys: Vec<(ColRef, bool)> },
    Limit { offset: usize, count: usize },
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
    /// One row of scalar aggregates, each the function its Reducer
    /// computes (`COUNT` for `SUM(*)` and for a `SUM` of a comparison):
    /// per-job partials combine.
    Scalar(Vec<AggFn>),
    /// Grouped aggregates: per-job histograms merge by ascending key.
    Grouped(Vec<GroupRole>),
}

/// A fully analyzed general lowering: the validated core plan, its
/// host-side epilogues, the output schema, the cost-model profile, and
/// the Systems its runs reset.
#[derive(Debug)]
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
    /// The catalog type of each column the analysis bound from the
    /// catalog, by leaf and name: `schema` holds for a bind whose columns
    /// have these types, and a bind refuses any other.
    dtypes: Vec<(usize, String, DataType)>,
    /// The plan's output schema ([`LogicalPlan::output_schema`]), the
    /// SQL engine's: the gather builds each column from its raw words at
    /// this type, a `Cell` column by the sink flags of the replicas that
    /// wrote it.
    schema: Schema,
    kind: SinkKind,
    /// Port/fabric demand of one pipeline (input to the replication
    /// chooser).
    pub(crate) profile: PipelineProfile,
    /// Human-readable node→module mapping lines, one per node the build
    /// lowered, then one `-> host` line per epilogue: the whole of what
    /// [`crate::compile::PipelinePlan::explain`] says the plan builds.
    pub(crate) summary: Vec<String>,
    /// The Systems every job bound from this lowering runs its batches
    /// on, freed with the plan.
    pool: SystemPool,
}

/// Resolves a column reference against stream columns ([`find_col`]).
/// An unknown column's did-you-mean draws on `cols` and on `unstreamed`,
/// the scanned columns projection pushdown left out of the stream, so it
/// suggests what the whole table would.
fn resolve<'n>(
    cols: &'n [StreamCol],
    unstreamed: &'n [String],
    col: &ColRef,
    node: &str,
) -> Result<usize, CoreError> {
    resolve_name(cols.iter().map(|c| c.name.as_str()), unstreamed, col, node)
}

/// [`resolve`] against column `names`.
fn resolve_name<'n>(
    names: impl Iterator<Item = &'n str> + Clone,
    unstreamed: &'n [String],
    col: &ColRef,
    node: &str,
) -> Result<usize, CoreError> {
    find_col(names.clone(), col).map_err(|hits| {
        if hits.is_empty() {
            return unknown_column(col, names.chain(unstreamed.iter().map(String::as_str)), node);
        }
        let hits: Vec<&str> = hits.iter().filter_map(|&i| names.clone().nth(i)).collect();
        let want = col.display_name();
        let reason = format!(
            "ambiguous column {want}: matches {} (qualify with a table prefix)",
            hits.join(", ")
        );
        CoreError::plan(node, reason)
    })
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
                let (&Expr::Number(offset), &Expr::Number(count)) = (offset, count) else {
                    return Err(CoreError::unsupported(
                        "Limit",
                        "offset and count must be integer literals",
                    ));
                };
                // The software engine's cast of its evaluated bounds.
                let (offset, count) = (offset as usize, count as usize);
                epis.push(Epilogue::Limit { offset, count });
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
    let (binding, mut literals) = ((&projection, &pushed[..]), Literals::new(None));
    prepare_scans(&core, catalog, each_row.as_deref(), binding, &mut literals, &mut prepared)?;
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
    let (_, kind) = build_core(&mut b, &mut ctx, &core)?;
    // The one typing both engines give the result (after the build, so
    // that a plan the lowering rejects fails with the lowering's error).
    let schema =
        plan.output_schema(catalog).map_err(|e| CoreError::plan("Schema", e.to_string()))?;
    // A grouped aggregate's software row order is engine-defined (key
    // first-appearance order) while the hardware drains keys in ascending
    // order; bit-identical results therefore require the query to pin the
    // order by sorting on the group key.
    if let SinkKind::Grouped(roles) = &kind {
        let ordered = match epilogues.first() {
            Some(Epilogue::Sort { keys }) if !keys.is_empty() => {
                let names = schema.fields().iter().map(|f| f.name.as_str());
                let i = resolve_name(names, &[], &keys[0].0, "Sort")?;
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
    let dtypes = prepared
        .iter()
        .enumerate()
        .flat_map(|(i, p)| p.cols.iter().filter_map(move |c| Some((i, c.name.clone(), c.dtype?))))
        .collect();
    let lowering = Arc::new(Lowering {
        schema,
        dtypes,
        core,
        epilogues,
        each_row,
        pushed,
        projection,
        reaches: ctx.reaches,
        kind,
        profile,
        summary,
        pool: SystemPool::default(),
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
    pub(crate) fn output_columns(&self) -> impl Iterator<Item = &str> {
        self.schema.fields().iter().map(|f| f.name.as_str())
    }

    /// Binds the lowering to `catalog`'s current data: selects the rows
    /// the pushed conjuncts keep and copies them of every column the scans
    /// bind, because the returned job runs on a host worker thread after
    /// `submit` has returned and so outlives the `&Catalog` borrow.
    /// `literals` are the values of the shape's pushed parameters
    /// ([`shape`]; `None` binds the analyzed plan's own).
    /// Without an explicit `factor`, the cost model chooses replication
    /// here from the analysis' profile (its port demand, fabric and
    /// expansion) at the selectivity of the rows just bound.
    pub(crate) fn prepare(
        self: &Arc<Self>,
        cfg: &DeviceConfig,
        catalog: &Catalog,
        literals: Option<&[u64]>,
        factor: Option<usize>,
    ) -> Result<PreparedJob, CoreError> {
        let mut prepared = Vec::new();
        let each_row = self.each_row.as_deref();
        let binding = (&self.projection, &self.pushed[..]);
        // The pushed conjuncts select from the catalog's current data (its
        // tables may have changed since analysis).
        let mut literals = Literals::new(literals);
        prepare_scans(&self.core, catalog, each_row, binding, &mut literals, &mut prepared)?;
        literals.finish()?;
        self.check_dtypes(&prepared)?;
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

    /// Refuses a bind that read a column at another type than the
    /// analysis did: the output schema was typed by the analysis'.
    fn check_dtypes(&self, prepared: &[PreparedScan]) -> Result<(), CoreError> {
        for (i, leaf) in prepared.iter().enumerate() {
            for col in &leaf.cols {
                let Some(now) = col.dtype else { continue };
                let was = self.dtypes.iter().find(|(l, name, _)| *l == i && *name == col.name);
                if let Some(&(_, _, was)) = was.filter(|(_, _, was)| *was != now) {
                    let reason = format!(
                        "column {} is {now:?} where the plan was compiled over {was:?}; \
                         compile the plan again",
                        col.name
                    );
                    return Err(CoreError::plan(format!("Scan({})", leaf.table), reason));
                }
            }
        }
        Ok(())
    }
}
