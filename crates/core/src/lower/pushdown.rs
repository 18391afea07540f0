//! Predicate pushdown: which conjuncts of a `Filter` a plain scan
//! absorbs ([`splits`]), the rows they keep of the catalog's columns
//! ([`select`]), and the serving cache's shape key ([`shape`]), which
//! masks exactly those conjuncts' literals because a bind re-applies them.

use super::bind::{as_u64, lookup_table, Cells, TableCol};
use super::bounds::lower_predicate;
use super::{StreamCol, Decode};
use crate::error::CoreError;
use genesis_hw::modules::filter::{CmpOp, Operand, Predicate};
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
/// that plain `Scan` leaf contributed, applied to the catalog's rows when
/// the lowering binds to catalog data (before any row is copied), so
/// Memory Readers and everything downstream see only surviving rows.
#[derive(Debug, Clone)]
pub(super) struct PushedFilter {
    /// Index into the prepared-scan list (leaf order).
    pub(super) scan: usize,
    pub(super) conjuncts: Vec<Expr>,
}

/// Column metadata of a bare scan (what a `Filter` directly above the
/// `Scan` leaf would see, each column in the field of its table index),
/// read off the table before anything is bound: the names, and each
/// column's decoding (a `Cell` column's is its first cell's; binding
/// checks the rest).
fn table_infos(t: &Table) -> Vec<StreamCol> {
    let fields = t.schema().fields();
    let decode = |ci: usize| match t.column_at(ci) {
        Column::Bool(_) => Decode::Bool,
        Column::Cell(cells) if matches!(cells.first(), Some(Value::Bool(_))) => Decode::Bool,
        _ => Decode::U64,
    };
    let info =
        |(field, f): (usize, &Field)| StreamCol { field, ..StreamCol::new(&f.name, decode(field)) };
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
/// would have been built; [`select`] resolves it the same way. The
/// traversal mirrors [`prepare_scans`]'
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

/// The values a bind gives its pushed conjuncts' literal operands, in
/// bind order: a cached shape's parameters as the request sets them
/// ([`shape`]), or, when there are none, each conjunct's own.
pub(super) struct Literals<'l>(Option<std::slice::Iter<'l, u64>>);

impl<'l> Literals<'l> {
    pub(super) fn new(values: Option<&'l [u64]>) -> Literals<'l> {
        Literals(values.map(<[u64]>::iter))
    }

    /// The value of the next literal operand, whose own value is `own`.
    fn next(&mut self, own: u64) -> Result<u64, CoreError> {
        let Some(values) = &mut self.0 else { return Ok(own) };
        let next = values.next().copied();
        next.ok_or_else(|| CoreError::Host("fewer literals than pushed parameters".into()))
    }

    /// Fails unless the bind used every value.
    pub(super) fn finish(mut self) -> Result<(), CoreError> {
        if self.0.as_mut().is_some_and(|rest| rest.next().is_some()) {
            return Err(CoreError::Host("more literals than pushed parameters".into()));
        }
        Ok(())
    }
}

/// The rows of a scan its pushed conjuncts keep: one bit per scanned row,
/// and how many are set.
#[derive(Debug, Clone)]
pub(super) struct Survivors {
    mask: Vec<u64>,
    count: usize,
}

impl Survivors {
    pub(super) fn count(&self) -> usize {
        self.count
    }

    /// Calls `f` on each kept row, ascending.
    fn for_each_row(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// The scanned row the `k`-th kept row (from 0) was, `None` past the
    /// last: the mask's words counted until the one holding it, then a
    /// select inside that word.
    pub(super) fn scanned_row(&self, k: usize) -> Option<usize> {
        let mut left = k;
        for (w, &word) in self.mask.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if left < ones {
                let mut bits = word;
                for _ in 0..left {
                    bits &= bits - 1;
                }
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            left -= ones;
        }
        None
    }

    /// `f` of the kept rows' values of `v`, in a vector of exactly their
    /// count.
    pub(super) fn gather<T: Copy, U>(&self, v: &[T], f: impl Fn(T) -> U) -> Vec<U> {
        let mut out = Vec::with_capacity(self.count);
        self.for_each_row(|r| out.push(f(v[r])));
        out
    }
}

/// `$body` with `$v` bound to the cells of `$cells` (a `&Cells`) as a
/// slice of their own width, each of which converts `Into<u64>`.
macro_rules! by_cells {
    ($cells:expr, $v:ident => $body:expr) => {
        match $cells {
            Cells::U8($v) => $body,
            Cells::U16($v) => $body,
            Cells::U32($v) => $body,
            Cells::U64(cow) => {
                let $v: &[u64] = cow;
                $body
            }
            Cells::Bool($v) => $body,
        }
    };
}

/// Clears each bit of `mask` whose row's `lhs` value fails `test` (given
/// the value, widened, and the row). The bit takes the test's outcome
/// instead of a branch on it: a selective predicate over unordered data
/// is the worst case for a branch predictor.
fn and_holds<T: Copy + Into<u64>>(mask: &mut [u64], lhs: &[T], test: impl Fn(u64, usize) -> bool) {
    for (w, (bits, chunk)) in mask.iter_mut().zip(lhs.chunks(64)).enumerate() {
        let mut pass = 0u64;
        for (i, &x) in chunk.iter().enumerate() {
            pass |= u64::from(test(x.into(), w * 64 + i)) << i;
        }
        *bits &= pass;
    }
}

/// [`and_holds`] of `lhs op v` for a literal `v`, with `op` matched once:
/// each arm's loop inlines its own comparison, which the compiler can
/// then vectorise.
fn and_holds_literal<T: Copy + Into<u64>>(mask: &mut [u64], lhs: &[T], op: CmpOp, v: u64) {
    match op {
        CmpOp::Eq => and_holds(mask, lhs, |x, _| CmpOp::Eq.holds(x, v)),
        CmpOp::Ne => and_holds(mask, lhs, |x, _| CmpOp::Ne.holds(x, v)),
        CmpOp::Lt => and_holds(mask, lhs, |x, _| CmpOp::Lt.holds(x, v)),
        CmpOp::Le => and_holds(mask, lhs, |x, _| CmpOp::Le.holds(x, v)),
        CmpOp::Gt => and_holds(mask, lhs, |x, _| CmpOp::Gt.holds(x, v)),
        CmpOp::Ge => and_holds(mask, lhs, |x, _| CmpOp::Ge.holds(x, v)),
        CmpOp::IsVal => and_holds(mask, lhs, |x, _| CmpOp::IsVal.holds(x, v)),
    }
}

/// The rows of `t` the pushed `conjuncts` keep, `None` when they keep
/// every row: the row-selection step run whenever a scan is (re)bound
/// from a catalog, before any row is copied. The conjuncts resolve to the
/// hardware [`Predicate`]s a lowered Filter would hold, over the table's
/// columns ([`table_infos`]); base-table scans never carry `Ins`/`Del`
/// markers, so each reduces to [`CmpOp::holds`] — the Filter module's own
/// comparison — on its operands' cells as `bound` reads them, each
/// element widened to `u64` (a literal is never narrowed), in one pass
/// per conjunct. Surviving rows keep their relative order, so downstream
/// modules see exactly the stream a lowered Filter would have produced.
pub(super) fn select(
    t: &Table,
    bound: &[Option<TableCol<'_>>],
    conjuncts: &[Expr],
    literals: &mut Literals<'_>,
) -> Result<Option<Survivors>, CoreError> {
    let infos = table_infos(t);
    let preds: Vec<Predicate> = conjuncts
        .iter()
        .map(|e| {
            lower_predicate(&infos, &[], e).map_err(|_| {
                CoreError::Host("pushed conjunct no longer resolves against the scan".into())
            })
        })
        .collect::<Result<_, _>>()?;
    let cells = |field: usize| {
        let col = bound.get(field).and_then(Option::as_ref);
        col.map(|col| &col.cells).ok_or_else(|| {
            CoreError::Host("pushed conjunct reads a column the scan does not bind".into())
        })
    };
    let rows = t.num_rows();
    let mut mask = vec![u64::MAX; rows.div_ceil(64)];
    for p in &preds {
        // `lower_predicate` only ever puts a field on the left.
        let Operand::Field(i) = p.lhs else {
            return Err(CoreError::Host("pushed conjunct has no column operand".into()));
        };
        let op = p.op;
        match p.rhs {
            Operand::Const(v) => {
                let v = literals.next(v)?;
                by_cells!(cells(i)?, l => and_holds_literal(&mut mask, l, op, v));
            }
            Operand::Field(j) => by_cells!(cells(i)?, l => by_cells!(cells(j)?, r => {
                and_holds(&mut mask, l, |x, row| op.holds(x, as_u64(r[row])));
            })),
        }
    }
    let count = mask.iter().map(|w| w.count_ones() as usize).sum();
    Ok((count < rows).then_some(Survivors { mask, count }))
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
