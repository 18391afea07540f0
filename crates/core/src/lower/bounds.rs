//! The value bounds a stream's columns carry ([`Bounds`]): narrowed
//! through filter conjuncts, derived for computed items only when no row
//! can wrap, and read off scanned data. They size GROUP BY scratchpads,
//! so they decide which predicates and ALU plans lower at all.

use super::bind::{by_width, PreparedScan};
use super::{cmp_of, resolve, Decode, StreamCol};
use crate::error::CoreError;
use genesis_hw::modules::alu::AluOp;
use genesis_hw::modules::filter::{CmpOp, Predicate};
use genesis_sql::ast::{BinOp, Expr};
use genesis_sql::exec::literal_cmp;
use std::sync::{Mutex, PoisonError};

/// The values a column can hold: none (its stream carries no row), every
/// value in `[lo, hi]`, or every value from `lo` up (no derivable top).
/// The one carrier and combiner of value bounds in the lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Bounds(Option<(u64, Option<u64>)>);

impl Bounds {
    pub(super) const EMPTY: Bounds = Bounds(None);
    /// Nothing is known: any value.
    pub(super) const ANY: Bounds = Bounds(Some((0, None)));

    /// From `lo` up to `top`, if any; empty when `lo > top`.
    fn new(lo: u64, top: Option<u64>) -> Bounds {
        Bounds(Some((lo, top)).filter(|_| top.is_none_or(|hi| lo <= hi)))
    }

    pub(super) fn within(lo: u64, hi: u64) -> Bounds {
        Bounds::new(lo, Some(hi))
    }

    pub(super) fn of(vals: impl Iterator<Item = u64>) -> Bounds {
        let (lo, hi) = vals.fold((u64::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)));
        Bounds::within(lo, hi)
    }

    /// The values both admit.
    fn meet(self, other: Bounds) -> Bounds {
        let (Some((a, at)), Some((b, bt))) = (self.0, other.0) else { return Bounds::EMPTY };
        Bounds::new(a.max(b), at.zip(bt).map(|(x, y)| x.min(y)).or(at).or(bt))
    }

    /// `[0, top]`: what a column bounded only from above holds.
    pub(super) fn down_to_zero(self) -> Bounds {
        Bounds(self.0.map(|(_, top)| (0, top)))
    }

    /// The least interval holding every value, `None` when none can occur.
    pub(super) fn span(self) -> Option<(u64, u64)> {
        self.0.map(|(lo, top)| (lo, top.unwrap_or(u64::MAX)))
    }

    /// The GROUP BY scratchpad window `[floor, max]` holding every key: one
    /// key no update touches when none can occur, `None` with no top.
    pub(super) fn key_window(self) -> Option<(u64, u64)> {
        self.0.map_or(Some((0, 0)), |(lo, top)| top.map(|hi| (lo, hi)))
    }

    /// `l + r` as the engine's `wrapping_add`: a top only when no row can
    /// overflow (the floors then sum too).
    fn add(self, r: Bounds) -> Bounds {
        let (Some((ll, lt)), Some((rl, rt))) = (self.0, r.0) else { return Bounds::EMPTY };
        let top = lt.zip(rt).and_then(|(a, b)| a.checked_add(b));
        top.map_or(Bounds::ANY, |hi| Bounds::within(ll + rl, hi))
    }

    /// `l - r` as the engine's `wrapping_sub`: bounded only when the least
    /// minuend covers the largest subtrahend, so no row can underflow.
    fn sub(self, r: Bounds) -> Bounds {
        let (Some((ll, lt)), Some((rl, rt))) = (self.0, r.0) else { return Bounds::EMPTY };
        match rt {
            Some(rh) if ll >= rh => Bounds::new(ll - rh, lt.map(|t| t - rl)),
            _ => Bounds::ANY,
        }
    }
}

/// `(strictly ascending, bounds)` of a scanned range at its width, in one
/// pass.
pub(super) fn range_stats<T: Copy + Ord + Into<u64>>(vals: &[T]) -> (bool, Bounds) {
    let Some((&first, rest)) = vals.split_first() else { return (true, Bounds::EMPTY) };
    let (mut ascending, mut prev, mut min, mut max) = (true, first, first, first);
    for &v in rest {
        ascending &= prev < v;
        prev = v;
        min = min.min(v);
        max = max.max(v);
    }
    (ascending, Bounds::within(min.into(), max.into()))
}

/// Narrows column metadata through a lowered conjunct. Both engines drop
/// `Ins`/`Del` sentinels on ordered and `Eq` comparisons with a number
/// literal ([`literal_cmp`], the rule the output schema types by), so a
/// column surviving one is no longer nullable — and its bounds keep only
/// the values the comparison passes, which is what admits `GROUP BY POS`
/// over an exploded stream behind `WHERE POS < n`.
pub(super) fn narrow_filtered_col(cols: &mut [StreamCol], part: &Expr) {
    let Some((col, op, lit)) = literal_cmp(part) else { return };
    let Ok(i) = resolve(cols, &[], col, "Filter") else { return };
    let c = &mut cols[i];
    c.nullable = false;
    let kept = match op {
        BinOp::Lt => lit.checked_sub(1).map_or(Bounds::EMPTY, |top| Bounds::within(0, top)),
        BinOp::Le => Bounds::within(0, lit),
        BinOp::Eq => Bounds::within(lit, lit),
        BinOp::Gt => lit.checked_add(1).map_or(Bounds::EMPTY, |lo| Bounds::new(lo, None)),
        BinOp::Ge => Bounds::new(lit, None),
        _ => Bounds::ANY,
    };
    c.bounds = c.bounds.meet(kept);
}

/// Lowers one conjunct to a hardware [`Predicate`], rejecting shapes whose
/// hardware evaluation would diverge from the software engine (the engine
/// treats `Bool` and numbers as *never equal*, and ordered comparisons on
/// non-`U64` cells as false).
pub(super) fn lower_predicate(
    cols: &[StreamCol],
    unstreamed: &[String],
    e: &Expr,
) -> Result<Predicate, CoreError> {
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
        (Expr::Col(a), Expr::Number(n)) | (Expr::Number(n), Expr::Col(a)) => {
            let i = resolve(cols, unstreamed, a, "Filter")?;
            require_u64(&cols[i], "Filter", "compared against a number")?;
            // The comparison as it reads with the column on the left
            // (`<>` reads alike from either side).
            let cmp = literal_cmp(e).and_then(|(_, op, _)| cmp_of(op)).unwrap_or(cmp);
            Ok(Predicate::field_const(cols[i].field, cmp, *n))
        }
        (Expr::Col(a), Expr::Col(bc)) => {
            let i = resolve(cols, unstreamed, a, "Filter")?;
            let j = resolve(cols, unstreamed, bc, "Filter")?;
            let both_bool = cols[i].decode == Decode::Bool && cols[j].decode == Decode::Bool;
            let eqish = matches!(cmp, CmpOp::Eq | CmpOp::Ne);
            if !(both_bool && eqish) {
                require_u64(&cols[i], "Filter", "ordered or mixed-type comparison")?;
                require_u64(&cols[j], "Filter", "ordered or mixed-type comparison")?;
            }
            Ok(Predicate::fields(cols[i].field, cmp, cols[j].field))
        }
        _ => Err(CoreError::unsupported(
            "Filter",
            "predicate operands must be columns or integer literals",
        )),
    }
}

fn require_u64(col: &StreamCol, node: &str, what: &str) -> Result<(), CoreError> {
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

/// An ALU computation plan: `alu(op, lhs_field, rhs)`, optionally followed
/// by `XOR 1` (boolean negation for the derived comparisons). Its fields
/// are column indices; the builder reads each column's flit field.
pub(super) struct CompPlan {
    pub(super) lhs_field: usize,
    pub(super) rhs: CompRhs,
    pub(super) op: AluOp,
    pub(super) negate: bool,
}

pub(super) enum CompRhs {
    Lit(u64),
    Field(usize),
}

pub(super) fn operand(
    cols: &[StreamCol],
    unstreamed: &[String],
    e: &Expr,
) -> Result<Option<CompOperand>, CoreError> {
    match e {
        Expr::Col(c) => {
            let i = resolve(cols, unstreamed, c, "Project")?;
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

pub(super) enum CompOperand {
    Field(usize),
    Lit(u64),
}

/// Plans one computed binary item as a 1–2 ALU chain. Derived forms:
/// `Ne = !Eq`, `x <= n` as `x < n+1`, `x > n` as `!(x < n+1)`, and
/// column/column `Gt`/`Le` by swapping the comparison's stream operands.
pub(super) fn plan_comp(
    op: BinOp,
    l: &CompOperand,
    r: &CompOperand,
) -> Result<(CompPlan, Decode), CoreError> {
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

/// Bounds on a computed item's values: a comparison is 0 or 1, and
/// `Add`/`Sub` have a top only when *no row can wrap* — the engine
/// computes with `wrapping_add`/`wrapping_sub` (`genesis-sql::exec`), so
/// any other top would size a GROUP BY scratchpad the wrapped keys escape
/// (a ~2^64 key aliased into a small histogram). `Sub` over two columns of
/// the *same* prepared scan, whose rows stream aligned (see
/// [`StreamCol::origin`]), also meets the exact per-row differences over
/// the scanned data: this admits mate-distance histograms (`MPOS - POS`
/// with per-row `MPOS >= POS`) even when the columns' value *ranges*
/// overlap. GROUP BY over a result with no top is refused, not mis-sized.
pub(super) fn comp_bounds(
    cols: &[StreamCol],
    prepared: &[PreparedScan],
    sub_bounds: &SubBounds,
    plan: &CompPlan,
    decode: Decode,
) -> Bounds {
    let l = &cols[plan.lhs_field];
    let (r, r_origin) = match &plan.rhs {
        CompRhs::Lit(n) => (Bounds::within(*n, *n), None),
        CompRhs::Field(f) => (cols[*f].bounds, cols[*f].origin),
    };
    if decode == Decode::Bool {
        return Bounds(l.bounds.0.and(r.0).map(|_| (0, Some(1))));
    }
    match plan.op {
        AluOp::Add => l.bounds.add(r),
        AluOp::Sub => {
            let rows = match (l.origin, r_origin) {
                (Some((s, lc)), Some((rs, rc))) if s == rs => sub_bounds.get(prepared, (s, lc, rc)),
                _ => Bounds::ANY,
            };
            l.bounds.sub(r).meet(rows)
        }
        _ => Bounds::ANY,
    }
}

/// The [`differences`] of one bind's same-scan columns, each walked
/// once: every replica of a `PreparedJob` builds the same projections
/// over the same prepared scans, so a `(scan, lhs, rhs)` column triple has
/// one answer however many builds ask.
#[derive(Debug, Default)]
pub(super) struct SubBounds(Mutex<Vec<(SubKey, Bounds)>>);

/// `(prepared-scan index, lhs column, rhs column)`.
type SubKey = (usize, usize, usize);

impl SubBounds {
    /// The bounds of `lhs - rhs` over columns `lhs` and `rhs` of
    /// `prepared[scan]`, walked on the first ask.
    fn get(&self, prepared: &[PreparedScan], key: SubKey) -> Bounds {
        // A walk that panicked pushed nothing, so a poisoned memo is
        // still a list of finished answers.
        let mut memo = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&(_, bounds)) = memo.iter().find(|(k, _)| *k == key) {
            return bounds;
        }
        let (scan, lhs, rhs) = key;
        let (lv, rv) = (&prepared[scan].cols[lhs].vals, &prepared[scan].cols[rhs].vals);
        let bounds = by_width!(lv, lv => by_width!(rv, rv => differences(lv, rv)));
        memo.push((key, bounds));
        bounds
    }
}

/// The bounds of `l[i] - r[i]` over aligned rows, with no derivable top
/// as soon as any row would underflow (the engine would wrap it past
/// 2^63).
pub(super) fn differences<L: Copy + Into<u64>, R: Copy + Into<u64>>(l: &[L], r: &[R]) -> Bounds {
    let mut diffs = l.iter().zip(r).map(|(&a, &b)| a.into().checked_sub(b.into()));
    let span = diffs.try_fold((u64::MAX, 0), |(lo, hi), d| d.map(|d| (lo.min(d), hi.max(d))));
    span.map_or(Bounds::ANY, |(lo, hi)| Bounds::within(lo, hi))
}
