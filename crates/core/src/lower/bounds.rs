//! The value bounds a stream's columns carry: narrowed through filter
//! conjuncts, derived for computed items only when no row can wrap, and
//! read off scanned data. They size GROUP BY scratchpads, so they decide
//! which predicates and ALU plans lower at all.

use super::bind::{by_width, PreparedScan};
use super::{cmp_of, resolve, Decode, StreamCol};
use crate::error::CoreError;
use genesis_hw::modules::alu::AluOp;
use genesis_hw::modules::filter::{CmpOp, Predicate};
use genesis_sql::ast::{BinOp, Expr};
use genesis_sql::exec::literal_cmp;
use std::sync::{Mutex, PoisonError};

/// `(strictly ascending, min, max)` of a scanned range at its width, in
/// one pass (`min` is the trivial bound 0 and `max` is `None` for an
/// empty range).
pub(super) fn range_stats<T: Copy + Ord + Into<u64>>(vals: &[T]) -> (bool, u64, Option<u64>) {
    let Some((&first, rest)) = vals.split_first() else { return (true, 0, None) };
    let (mut ascending, mut prev, mut min, mut max) = (true, first, first, first);
    for &v in rest {
        ascending &= prev < v;
        prev = v;
        min = min.min(v);
        max = max.max(v);
    }
    (ascending, min.into(), Some(max.into()))
}

/// Narrows column metadata through a lowered conjunct. Both engines drop
/// `Ins`/`Del` sentinels on ordered and `Eq` comparisons with a number
/// literal ([`literal_cmp`], the rule the output schema types by), so a
/// column surviving one is no longer nullable — and upper-bounding
/// comparisons tighten its `max_value`, which is what admits
/// `GROUP BY POS` over an exploded stream behind `WHERE POS < n`.
pub(super) fn narrow_filtered_col(cols: &mut [StreamCol], part: &Expr) {
    let Some((col, op, lit)) = literal_cmp(part) else { return };
    let Ok(i) = resolve(cols, &[], col, "Filter") else { return };
    let c = &mut cols[i];
    c.nullable = false;
    let bound = match op {
        // `lit == 0` makes `x < 0` pass nothing, so the saturated claim
        // `max <= 0` is vacuously valid for the (empty) survivors.
        BinOp::Lt => Some(lit.saturating_sub(1)),
        BinOp::Le | BinOp::Eq => Some(lit),
        _ => None,
    };
    if let Some(bd) = bound {
        c.max_value = Some(c.max_value.map_or(bd, |m| m.min(bd)));
    }
    let floor = match op {
        // Dually, `lit == u64::MAX` makes `x > MAX` pass nothing and the
        // saturated floor `MAX` is vacuously valid for the empty stream.
        BinOp::Gt => Some(lit.saturating_add(1)),
        BinOp::Ge | BinOp::Eq => Some(lit),
        _ => None,
    };
    if let Some(fl) = floor {
        c.min_value = c.min_value.max(fl);
    }
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
///   aligned (see [`StreamCol::origin`]), so the exact per-row differences
///   over the scanned data bound every subset of its rows — this admits
///   mate-distance histograms (`MPOS - POS` with per-row `MPOS >= POS`)
///   even when the columns' value *ranges* overlap.
/// - `Sub` by range: the minuend's minimum covers the subtrahend's
///   maximum, so no row can underflow.
///
/// Anything else yields `(0, None)` — no derivable bound — and GROUP BY
/// over the result is rejected instead of mis-sized.
pub(super) fn comp_bounds(
    cols: &[StreamCol],
    prepared: &[PreparedScan],
    sub_bounds: &SubBounds,
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
                        return sub_bounds.get(prepared, (ls, lc, rc));
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

/// The [`same_scan_sub_bounds`] of one bind, each walked once: every
/// replica of a `PreparedJob` builds the same projections over the same
/// prepared scans, so a `(scan, lhs, rhs)` column triple has one answer
/// however many builds ask.
#[derive(Debug, Default)]
pub(super) struct SubBounds(Mutex<Vec<(SubKey, Bounds)>>);

/// `(prepared-scan index, lhs column, rhs column)`.
type SubKey = (usize, usize, usize);

/// `(min, max)` of a column's values, `max` `None` when unbounded.
type Bounds = (u64, Option<u64>);

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
        let bounds = same_scan_sub_bounds(&prepared[scan], lhs, rhs);
        memo.push((key, bounds));
        bounds
    }
}

/// Exact bounds of `lhs - rhs` over two row-aligned columns of one
/// prepared scan, degrading to "no bound" as soon as any row would
/// underflow (the engine would wrap it past 2^63).
fn same_scan_sub_bounds(scan: &PreparedScan, lc: usize, rc: usize) -> (u64, Option<u64>) {
    fn bounds<L: Copy + Into<u64>, R: Copy + Into<u64>>(lv: &[L], rv: &[R]) -> Bounds {
        if lv.is_empty() {
            return (0, Some(0));
        }
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for (&a, &b) in lv.iter().zip(rv) {
            let Some(d) = a.into().checked_sub(b.into()) else { return (0, None) };
            lo = lo.min(d);
            hi = hi.max(d);
        }
        (lo, Some(hi))
    }
    by_width!(&scan.cols[lc].vals, lv => by_width!(&scan.cols[rc].vals, rv => bounds(lv, rv)))
}
