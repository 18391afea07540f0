//! Predicate pushdown: which conjuncts of a `Filter` a plain scan
//! absorbs ([`splits`]), applying them to the bound rows, and the serving
//! cache's shape key ([`shape`]), which masks exactly those conjuncts'
//! literals because a bind re-applies them.

use super::bind::{lookup_table, PreparedCol, PreparedScan};
use super::bounds::lower_predicate;
use super::{ColInfo, Decode};
use crate::error::CoreError;
use genesis_hw::modules::filter::{Operand, Predicate};
use genesis_sql::ast::{BinOp, Expr};
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::{Column, Field, Table, Value};
use std::hash::{Hash, Hasher};

pub(super) fn conjuncts<'e>(pred: &'e Expr, out: &mut Vec<&'e Expr>) {
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
pub(super) struct PushedFilter {
    /// Index into the prepared-scan list (leaf order).
    pub(super) scan: usize,
    pub(super) conjuncts: Vec<Expr>,
}

/// Column metadata of a bare prepared scan (what a `Filter` directly
/// above the `Scan` leaf would see, each column in its own field), for
/// resolving pushed conjuncts.
fn scan_infos(scan: &PreparedScan) -> Vec<ColInfo> {
    let info =
        |(field, c): (usize, &PreparedCol)| ColInfo { field, ..ColInfo::new(&c.name, c.decode) };
    scan.cols.iter().enumerate().map(info).collect()
}

/// [`scan_infos`] read off a table before anything is bound: the names,
/// and the decoding each column would widen to (a `Cell` column's is
/// its first cell's; binding checks the rest).
fn table_infos(t: &Table) -> Vec<ColInfo> {
    let fields = t.schema().fields();
    let decode = |ci: usize| match t.column_at(ci) {
        Column::Bool(_) => Decode::Bool,
        Column::Cell(cells) if matches!(cells.first(), Some(Value::Bool(_))) => Decode::Bool,
        _ => Decode::U64,
    };
    let info =
        |(field, f): (usize, &Field)| ColInfo { field, ..ColInfo::new(&f.name, decode(field)) };
    fields.iter().enumerate().map(info).collect()
}

/// One `Filter` sitting directly above a plain `Scan` leaf of the core,
/// split by pushdown into the conjuncts absorbed into the scan and the
/// residual ones left as a lowered Filter module.
struct Split<'p> {
    /// The `Filter` node.
    node: &'p LogicalPlan,
    /// Index of its scan in leaf order.
    scan: usize,
    /// The pushed conjuncts, in predicate order.
    push: Vec<&'p Expr>,
    /// The conjuncts left to a lowered Filter.
    residual: Vec<&'p Expr>,
}

impl<'p> Split<'p> {
    /// Whether `node` is this split's `Filter`.
    fn is_node(&self, node: &LogicalPlan) -> bool {
        std::ptr::eq(self.node, node)
    }

    /// Whether `conjunct` is one of the pushed conjuncts (by identity).
    fn pushes(&self, conjunct: &Expr) -> bool {
        self.push.iter().any(|e| std::ptr::eq(*e, conjunct))
    }
}

/// The pushdown decision for `core`: every `Filter` directly above a plain
/// `Scan` leaf whose conjuncts split, in leaf order. A conjunct is pushed
/// exactly when [`lower_predicate`] resolves it against the bare scan's
/// columns ([`table_infos`]), i.e. when the hardware Filter it replaces
/// would have been built. The traversal mirrors [`prepare_scans`]'
/// left-to-right leaf order — and since pushdown only removes Filter
/// *nodes*, that leaf order is invariant under the rewrite, which is what
/// lets a pushed conjunct name its scan by index in the rewritten core
/// every bind prepares. Both the rewrite ([`push_down`]) and the serving
/// cache's shape key ([`shape`]) read this one decision.
///
/// [`prepare_scans`]: super::bind::prepare_scans
fn splits<'p>(core: &'p LogicalPlan, catalog: &Catalog) -> Vec<Split<'p>> {
    fn walk<'p>(
        plan: &'p LogicalPlan,
        catalog: &Catalog,
        next_scan: &mut usize,
        out: &mut Vec<Split<'p>>,
    ) {
        match plan {
            // Explode and window leaves absorb their input; nothing to push.
            LogicalPlan::Scan { .. }
            | LogicalPlan::PosExplode { .. }
            | LogicalPlan::ReadExplode { .. }
            | LogicalPlan::Limit { .. } => *next_scan += 1,
            LogicalPlan::Filter { input, pred } => {
                let LogicalPlan::Scan { table, partition } = &**input else {
                    return walk(input, catalog, next_scan, out);
                };
                let scan = *next_scan;
                *next_scan += 1;
                // An unknown table pushes nothing; binding reports it.
                let Ok(t) = lookup_table(table, partition.as_ref(), catalog) else { return };
                let infos = table_infos(t);
                let mut parts = Vec::new();
                conjuncts(pred, &mut parts);
                let (push, residual): (Vec<&Expr>, Vec<&Expr>) =
                    parts.into_iter().partition(|e| lower_predicate(&infos, &[], e).is_ok());
                if !push.is_empty() {
                    out.push(Split { node: plan, scan, push, residual });
                }
            }
            other => other.inputs().for_each(|input| walk(input, catalog, next_scan, out)),
        }
    }
    let mut out = Vec::new();
    walk(core, catalog, &mut 0, &mut out);
    out
}

/// Rewrites the core plan for pushdown ([`splits`]): each split Filter
/// gives its pushed conjuncts to its scan (recorded per scan, applied at
/// bind time) and keeps only the residual ones. Conjunction is
/// commutative and survivors keep their relative order, so the rewritten
/// plan's streams are bit-identical to the original's.
pub(super) fn push_down(plan: &LogicalPlan, catalog: &Catalog) -> (LogicalPlan, Vec<PushedFilter>) {
    fn rewrite(plan: &LogicalPlan, splits: &[Split<'_>]) -> LogicalPlan {
        let Some(split) = splits.iter().find(|s| s.is_node(plan)) else {
            return plan.map_inputs(|input| rewrite(input, splits));
        };
        let LogicalPlan::Filter { input, .. } = plan else { unreachable!("a split is a Filter") };
        match split.residual.iter().map(|&e| e.clone()).reduce(|acc, e| Expr::Bin {
            op: BinOp::And,
            lhs: Box::new(acc),
            rhs: Box::new(e),
        }) {
            None => (**input).clone(),
            Some(pred) => LogicalPlan::Filter { input: input.clone(), pred },
        }
    }
    let splits = splits(plan, catalog);
    let pushed = splits
        .iter()
        .map(|s| PushedFilter {
            scan: s.scan,
            conjuncts: s.push.iter().map(|&e| e.clone()).collect(),
        })
        .collect();
    (rewrite(plan, &splits), pushed)
}

/// The literal operand of a pushable conjunct (`X < 5`, `5 > X`), if any.
fn literal_of(conjunct: &Expr) -> Option<u64> {
    match conjunct {
        Expr::Bin { lhs, rhs, .. } => match (&**lhs, &**rhs) {
            (Expr::Number(n), _) | (_, Expr::Number(n)) => Some(*n),
            _ => None,
        },
        _ => None,
    }
}

/// Whether no pushed literal of `core` can size its hardware: the module
/// graph and fabric of a scan, filter, join, projection or scalar
/// aggregate do not depend on which rows survive, while a GROUP BY,
/// explode, reference window or loop sizes a scratchpad from bound data.
fn shape_ignores_literals(core: &LogicalPlan) -> bool {
    match core {
        LogicalPlan::Aggregate { group_by, .. } if !group_by.is_empty() => false,
        LogicalPlan::PosExplode { .. }
        | LogicalPlan::ReadExplode { .. }
        | LogicalPlan::Limit { .. }
        | LogicalPlan::ForEach { .. } => false,
        other => other.inputs().all(shape_ignores_literals),
    }
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
/// columns ([`retain_rows`]); operands only the host read are then
/// dropped ([`PreparedScan::drop_operands`]) and the rest compact in place.
/// Surviving rows keep their relative order, so downstream modules see
/// exactly the stream a lowered Filter would have produced. `literals`,
/// when given, replace the conjuncts' literal operands in order: the
/// request's values of a cached shape's parameters ([`shape`]).
///
/// [`CmpOp::holds`]: genesis_hw::modules::filter::CmpOp::holds
pub(super) fn apply_pushdown(
    prepared: &mut [PreparedScan],
    pushed: &[PushedFilter],
    literals: Option<&[u64]>,
) -> Result<(), CoreError> {
    let mut literals = literals.map(<[u64]>::iter);
    for pf in pushed {
        let scan = prepared
            .get_mut(pf.scan)
            .ok_or_else(|| CoreError::Host("pushed filter references a missing scan".into()))?;
        let infos = scan_infos(scan);
        let preds: Vec<Predicate> = pf
            .conjuncts
            .iter()
            .map(|e| {
                lower_predicate(&infos, &[], e).map_err(|_| {
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
                Operand::Const(v) => {
                    let v = match literals.as_mut() {
                        Some(values) => *values.next().ok_or_else(|| {
                            CoreError::Host("fewer literals than pushed parameters".into())
                        })?,
                        None => v,
                    };
                    retain_rows(&mut kept, |r| p.op.holds(lhs[r], v));
                }
                Operand::Field(j) => {
                    let rhs = &scan.cols[j].vals;
                    retain_rows(&mut kept, |r| p.op.holds(lhs[r], rhs[r]));
                }
            }
        }
        scan.rows_scanned = n;
        scan.drop_operands(pf.scan == 0);
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
    if literals.is_some_and(|mut rest| rest.next().is_some()) {
        return Err(CoreError::Host("more literals than pushed parameters".into()));
    }
    Ok(())
}

/// The serving cache's key for `plan` against `catalog`
/// ([`crate::serve::fingerprint`] under `pushdown`), and this plan's values
/// of the shape's parameters in bind order (the order
/// [`Lowering::prepare`] substitutes them). The parameters are the
/// literals of the pushed conjuncts ([`splits`]), masked in the key. There
/// are none, and every literal is in the key (`None`), when `pushdown` is
/// off or the shape could depend on a pushed literal
/// ([`shape_ignores_literals`]).
///
/// [`Lowering::prepare`]: super::Lowering::prepare
pub(crate) fn shape(
    plan: &LogicalPlan,
    catalog: &Catalog,
    pushdown: bool,
) -> (u64, Option<Vec<u64>>) {
    // The core below the host epilogues `peel` splits off.
    let mut core = plan;
    while let LogicalPlan::Sort { input, .. } | LogicalPlan::Limit { input, .. } = core {
        core = input;
    }
    let pushed = (pushdown && shape_ignores_literals(core)).then(|| splits(core, catalog));
    let literals = pushed.as_ref().map(|pushed| {
        pushed.iter().flat_map(|s| &s.push).filter_map(|e| literal_of(e)).collect()
    });
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    hash_plan(plan, catalog, pushed.as_deref().unwrap_or_default(), &mut h);
    (h.finish(), literals)
}

/// FNV-1a as a [`Hasher`]: stable from run to run, unlike the standard
/// library's randomly keyed default.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hashes one plan node's own fields (a scan's with its table's schema),
/// then its inputs left to right.
fn hash_plan(plan: &LogicalPlan, catalog: &Catalog, splits: &[Split<'_>], h: &mut Fnv) {
    std::mem::discriminant(plan).hash(h);
    match plan {
        LogicalPlan::Scan { table, partition } => {
            (table, partition).hash(h);
            catalog.table(table).map(Table::schema).hash(h);
        }
        LogicalPlan::Project { items, .. } => items.hash(h),
        LogicalPlan::Filter { pred, .. } => match splits.iter().find(|s| s.is_node(plan)) {
            Some(split) => hash_masked(pred, split, h),
            None => pred.hash(h),
        },
        LogicalPlan::Join { kind, left_key, right_key, .. } => (kind, left_key, right_key).hash(h),
        LogicalPlan::Aggregate { items, group_by, .. } => (items, group_by).hash(h),
        LogicalPlan::Sort { keys, .. } => keys.hash(h),
        LogicalPlan::Limit { offset, count, .. } => (offset, count).hash(h),
        LogicalPlan::PosExplode { array, init_pos, .. } => (array, init_pos).hash(h),
        LogicalPlan::ReadExplode { pos, cigar, seq, qual, .. } => (pos, cigar, seq, qual).hash(h),
        LogicalPlan::ForEach { var, .. } => var.hash(h),
    }
    for input in plan.inputs() {
        hash_plan(input, catalog, splits, h);
    }
}

/// Hashes a split Filter's predicate as [`Expr`]'s own `Hash` would, but
/// with each pushed conjunct's literal operand replaced by one marker.
fn hash_masked(e: &Expr, split: &Split<'_>, h: &mut Fnv) {
    let pushed = split.pushes(e);
    let Expr::Bin { op, lhs, rhs } = e else { return e.hash(h) };
    if *op != BinOp::And && !pushed {
        return e.hash(h);
    }
    std::mem::discriminant(e).hash(h);
    op.hash(h);
    for side in [lhs, rhs] {
        match &**side {
            Expr::Number(_) if pushed => h.write_u8(u8::MAX),
            other => hash_masked(other, split, h),
        }
    }
}
