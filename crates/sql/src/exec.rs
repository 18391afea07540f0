//! The software query engine: evaluates logical plans over columnar
//! tables. This is the reference semantics every Genesis hardware pipeline
//! is validated against.

use crate::ast::{AggFn, BinOp, ColRef, Expr, JoinKind, SelectItem, Statement};
use crate::catalog::Catalog;
use crate::error::SqlError;
use crate::parser::parse_script;
use crate::plan::{lower_query, LogicalPlan};
use crate::schema::{
    aggregate_schema, filter_schema, join_schema, pos_explode_schema, project_schema,
    read_explode_schema, Bound,
};
use genesis_types::{CigarElem, CigarOp, Schema, Table, Value};
#[cfg(test)]
use genesis_types::{Column, DataType, Field};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Execution environment: `@variables` and loop-row bindings.
#[derive(Debug, Default)]
pub struct Env {
    vars: HashMap<String, Value>,
    rows: HashMap<String, RowBinding>,
}

/// One bound row (the loop variable of `FOR row IN table`).
#[derive(Debug, Clone)]
pub struct RowBinding {
    /// The looped table's schema.
    schema: Schema,
    values: Vec<Value>,
}

impl Env {
    /// Sets a variable.
    pub fn set_var(&mut self, name: &str, value: Value) {
        self.vars.insert(name.to_owned(), value);
    }

    /// Reads a variable.
    #[must_use]
    pub fn var(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }

    /// The row schema of the loop variable `name`, when one is bound.
    fn row_schema(&self, name: &str) -> Option<&Schema> {
        self.rows.get(name).map(|b| &b.schema)
    }
}

/// The one of `names` that `col` names, as both engines resolve a column:
/// an exact display-name match (`T.C` or `C`) first, then a unique bare
/// or `.suffix` match. `Err` holds every such match when there is not
/// exactly one. It formats no name, and allocates only to fail.
pub fn find_col<'n>(
    names: impl Iterator<Item = &'n str> + Clone,
    col: &ColRef,
) -> Result<usize, Vec<usize>> {
    // A qualified name is compared in place as `{table}.{column}`.
    let exact = |n: &str| match &col.table {
        Some(t) => n.strip_prefix(&**t).and_then(|r| r.strip_prefix('.')) == Some(&*col.column),
        None => n == col.column,
    };
    if let Some(i) = names.clone().position(exact) {
        return Ok(i);
    }
    let hits = || names.clone().enumerate().filter(|&(_, n)| ends_at_dot(n, &col.column));
    let mut found = hits();
    match (found.next(), found.next()) {
        (Some((i, _)), None) => Ok(i),
        _ => Err(hits().map(|(i, _)| i).collect()),
    }
}

/// Whether `long` is `short` or ends in `.{short}`.
fn ends_at_dot(long: &str, short: &str) -> bool {
    long.strip_suffix(short).is_some_and(|head| head.is_empty() || head.ends_with('.'))
}

/// Whether `col` could find ([`find_col`]) a column carrying the field
/// `name`, as `name` or, behind a join, `prefix.name`: one of the two
/// names ends in the other at a `.` boundary.
#[must_use]
pub fn may_resolve(name: &str, col: &ColRef) -> bool {
    ends_at_dot(name, &col.column) || ends_at_dot(&col.column, name)
}

/// Resolves a column reference against a schema whose field names may be
/// bare (`POS`) or qualified (`#AlignedRead.POS`), by [`find_col`].
pub(crate) fn resolve_col(schema: &Schema, col: &ColRef) -> Result<usize, SqlError> {
    let names = schema.fields().iter().map(|f| f.name.as_str());
    find_col(names, col).map_err(|hits| match hits[..] {
        [] => SqlError::Unknown { kind: "column", name: col.display_name() },
        _ => SqlError::Ambiguous { name: col.display_name() },
    })
}

/// The name the select item `expr` at position `i` gives its column: its
/// alias, else a column's display name, else `EXPR{i}`.
#[must_use]
pub fn item_name(alias: Option<&str>, expr: &Expr, i: usize) -> String {
    match (alias, expr) {
        (Some(alias), _) => alias.to_owned(),
        (None, Expr::Col(c)) => c.display_name(),
        (None, _) => format!("EXPR{i}"),
    }
}

/// The name an aggregate select item gives its column: its alias, else
/// the function's (`SUM`, `COUNT`, `MIN`, `MAX`).
pub(crate) fn agg_name(alias: Option<&str>, func: AggFn) -> String {
    let name = alias.unwrap_or(match func {
        AggFn::Sum => "SUM",
        AggFn::Count => "COUNT",
        AggFn::Min => "MIN",
        AggFn::Max => "MAX",
    });
    name.to_owned()
}

/// The name a join gives the column `name` of a side whose key is
/// qualified by `prefix`: `prefix.name`, unless the key is bare or `name`
/// is qualified already.
#[must_use]
pub fn qualify(prefix: Option<&str>, name: &str) -> String {
    match prefix {
        Some(p) if !name.contains('.') => format!("{p}.{name}"),
        _ => name.to_owned(),
    }
}

/// `pred` as a column compared with a number literal by `=`, `<`, `<=`,
/// `>` or `>=`, on either side: the column, the comparison as it reads
/// with the column on the left (`5 > X` is `X < 5`), and the literal. No
/// `Ins`, `Del` or `NULL` satisfies such a comparison, so every row it
/// keeps holds a number in the column.
#[must_use]
pub fn literal_cmp(pred: &Expr) -> Option<(&ColRef, BinOp, u64)> {
    let Expr::Bin { op, lhs, rhs } = pred else { return None };
    let mirrored = match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        _ => return None,
    };
    match (&**lhs, &**rhs) {
        (Expr::Col(c), Expr::Number(n)) => Some((c, *op, *n)),
        (Expr::Number(n), Expr::Col(c)) => Some((c, mirrored, *n)),
        _ => None,
    }
}

/// `t`'s rows ordered by `keys`, each a column and whether it sorts
/// descending: by the first key, a tie by the next, and rows tied on
/// every key in their order in `t`.
///
/// # Errors
///
/// [`SqlError`] when a key names no column of `t`, or more than one.
pub fn sort_table(t: &Table, keys: &[(ColRef, bool)]) -> Result<Table, SqlError> {
    let key_cols: Vec<(usize, bool)> = keys
        .iter()
        .map(|(c, desc)| resolve_col(t.schema(), c).map(|i| (i, *desc)))
        .collect::<Result<_, _>>()?;
    let mut order: Vec<usize> = (0..t.num_rows()).collect();
    order.sort_by(|&a, &b| {
        key_cols.iter().fold(Ordering::Equal, |tied, &(col, desc)| {
            tied.then_with(|| {
                let (va, vb) = (t.column_at(col).get(a), t.column_at(col).get(b));
                let cmp = va.partial_cmp(&vb).unwrap_or(Ordering::Equal);
                if desc { cmp.reverse() } else { cmp }
            })
        })
    });
    rows_of(t, order)
}

/// The `count` rows of `t` from row `offset` on, fewer where `t` ends
/// first.
///
/// # Errors
///
/// [`SqlError`] from the table layer.
pub fn limit_table(t: &Table, offset: usize, count: usize) -> Result<Table, SqlError> {
    let end = offset.saturating_add(count).min(t.num_rows());
    rows_of(t, offset.min(t.num_rows())..end)
}

/// The rows `rows` of `t`, in that order.
fn rows_of(t: &Table, rows: impl IntoIterator<Item = usize>) -> Result<Table, SqlError> {
    let mut out = Table::new(t.schema().clone());
    for r in rows {
        out.push_row(t.row(r))?;
    }
    Ok(out)
}

/// A row context for scalar evaluation.
#[derive(Debug, Clone, Copy)]
struct RowCtx<'a> {
    schema: &'a Schema,
    row: &'a [Value],
}

fn eval_expr(expr: &Expr, ctx: Option<RowCtx<'_>>, env: &Env) -> Result<Value, SqlError> {
    match expr {
        Expr::Number(n) => Ok(Value::U64(*n)),
        Expr::Var(name) => env
            .var(name)
            .cloned()
            .ok_or_else(|| SqlError::Unknown { kind: "variable", name: name.clone() }),
        Expr::Col(col) => {
            // Loop-row bindings take precedence for qualified references.
            if let Some(t) = &col.table {
                if let Some(binding) = env.rows.get(t) {
                    let i = binding.schema.index_of(&col.column).ok_or_else(|| {
                        SqlError::Unknown { kind: "column", name: col.display_name() }
                    })?;
                    return Ok(binding.values[i].clone());
                }
            }
            if let Some(ctx) = ctx {
                if let Ok(i) = resolve_col(ctx.schema, col) {
                    return Ok(ctx.row[i].clone());
                }
            }
            // Bare names fall back to `@name` variables (the paper's
            // Figure 4 writes `LIMIT SingleRead.POS, rlen`).
            if col.table.is_none() {
                if let Some(v) = env.var(&format!("@{}", col.column)) {
                    return Ok(v.clone());
                }
            }
            Err(SqlError::Unknown { kind: "column", name: col.display_name() })
        }
        Expr::Bin { op, lhs, rhs } => {
            let l = eval_expr(lhs, ctx, env)?;
            let r = eval_expr(rhs, ctx, env)?;
            eval_binop(*op, &l, &r)
        }
    }
}

/// Scalar operator semantics. The genomics sentinels `Ins`/`Del` (and SQL
/// NULL) compare *unequal* to everything — matching the hardware Filter's
/// sentinel rule — and never satisfy ordered comparisons.
fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value, SqlError> {
    let comparable = !(l.is_marker() || r.is_marker() || l.is_null() || r.is_null());
    match op {
        BinOp::Eq => Ok(Value::Bool(comparable && l == r)),
        BinOp::Ne => Ok(Value::Bool(!(comparable && l == r))),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let (Some(a), Some(b)) = (l.as_u64(), r.as_u64()) else {
                return Ok(Value::Bool(false));
            };
            Ok(Value::Bool(match op {
                BinOp::Lt => a < b,
                BinOp::Le => a <= b,
                BinOp::Gt => a > b,
                BinOp::Ge => a >= b,
                _ => unreachable!(),
            }))
        }
        BinOp::Add | BinOp::Sub => {
            let (Some(a), Some(b)) = (l.as_u64(), r.as_u64()) else {
                return Err(SqlError::Eval(format!("arithmetic on non-numeric {l} / {r}")));
            };
            Ok(Value::U64(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                _ => unreachable!(),
            }))
        }
        BinOp::And | BinOp::Or => {
            let (Some(a), Some(b)) = (truthy(l), truthy(r)) else {
                return Ok(Value::Bool(false));
            };
            Ok(Value::Bool(if op == BinOp::And { a && b } else { a || b }))
        }
    }
}

fn truthy(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::U64(n) => Some(*n != 0),
        _ => None,
    }
}

/// Executes a logical plan against the catalog. Every node's table has
/// the node's schema by the rules of [`LogicalPlan::output_schema`], so
/// the result's is the plan's output schema.
///
/// # Errors
///
/// Returns [`SqlError`] for unresolved names, type errors, or table-layer
/// failures.
pub fn execute_plan(
    plan: &LogicalPlan,
    catalog: &Catalog,
    env: &Env,
) -> Result<Table, SqlError> {
    let bound: Bound<'_, '_> = &|name| env.row_schema(name);
    match plan {
        LogicalPlan::Scan { table, partition } => {
            // Loop-row bindings act as single-row tables.
            if let Some(binding) = env.rows.get(table) {
                let mut t = Table::new(binding.schema.clone());
                t.push_row(binding.values.clone())?;
                return Ok(t);
            }
            let found = match partition {
                Some(p) => {
                    let pid = eval_expr(p, None, env)?
                        .as_u64()
                        .ok_or_else(|| SqlError::Eval("partition id not numeric".into()))?;
                    catalog.partition(table, pid)
                }
                None => catalog.table(table),
            };
            found
                .cloned()
                .ok_or_else(|| SqlError::Unknown { kind: "table", name: table.clone() })
        }
        LogicalPlan::Filter { input, pred } => {
            let t = execute_plan(input, catalog, env)?;
            let mut out = Table::new(filter_schema(t.schema(), pred, bound));
            for r in 0..t.num_rows() {
                let row = t.row(r);
                let keep = eval_expr(pred, Some(RowCtx { schema: t.schema(), row: &row }), env)?;
                if truthy(&keep).unwrap_or(false) {
                    out.push_row(row)?;
                }
            }
            Ok(out)
        }
        LogicalPlan::Project { input, items } => {
            let t = execute_plan(input, catalog, env)?;
            project(&t, items, env, bound)
        }
        LogicalPlan::Aggregate { input, items, group_by } => {
            let t = execute_plan(input, catalog, env)?;
            aggregate(&t, items, group_by, env, bound)
        }
        LogicalPlan::Sort { input, keys } => sort_table(&execute_plan(input, catalog, env)?, keys),
        LogicalPlan::Limit { input, offset, count } => {
            let t = execute_plan(input, catalog, env)?;
            let bound = |e: &Expr, what: &str| match eval_expr(e, None, env)?.as_u64() {
                Some(n) => Ok(n as usize),
                None => Err(SqlError::Eval(format!("LIMIT {what} not numeric"))),
            };
            limit_table(&t, bound(offset, "offset")?, bound(count, "count")?)
        }
        LogicalPlan::Join { kind, left, right, left_key, right_key } => {
            let lt = execute_plan(left, catalog, env)?;
            let rt = execute_plan(right, catalog, env)?;
            join(&lt, &rt, *kind, left_key, right_key)
        }
        LogicalPlan::PosExplode { input, array, init_pos } => {
            let t = execute_plan(input, catalog, env)?;
            let (col, schema) = pos_explode_schema(t.schema(), array)?;
            let name = &t.schema().fields()[col].name;
            let mut out = Table::new(schema);
            for r in 0..t.num_rows() {
                let row = t.row(r);
                let init = eval_expr(
                    init_pos,
                    Some(RowCtx { schema: t.schema(), row: &row }),
                    env,
                )?
                .as_u64()
                .ok_or_else(|| SqlError::Eval("INITPOS not numeric".into()))?;
                let Value::List(items) = &row[col] else {
                    return Err(SqlError::Eval(format!(
                        "PosExplode source column {name} is not a list"
                    )));
                };
                for (i, item) in items.iter().enumerate() {
                    out.push_row(vec![Value::U64(init + i as u64), item.clone()])?;
                }
            }
            Ok(out)
        }
        LogicalPlan::ReadExplode { input, pos, cigar, seq, qual } => {
            let t = execute_plan(input, catalog, env)?;
            read_explode(&t, pos, cigar, seq, qual.as_ref(), env)
        }
        LogicalPlan::ForEach { .. } => {
            Err(SqlError::Eval("a FOR loop runs statement by statement (Script::run)".into()))
        }
    }
}

/// `ReadExplode` software semantics (paper Figure 3). Output columns are
/// `POS`, `SEQ` and (when a quality column is given) `QUAL`, all `Cell`
/// so the `Ins`/`Del` sentinels can be carried.
fn read_explode(
    t: &Table,
    pos: &Expr,
    cigar: &ColRef,
    seq: &ColRef,
    qual: Option<&ColRef>,
    env: &Env,
) -> Result<Table, SqlError> {
    let cigar_i = resolve_col(t.schema(), cigar)?;
    let seq_i = resolve_col(t.schema(), seq)?;
    let qual_i = qual.map(|q| resolve_col(t.schema(), q)).transpose()?;
    let mut out = Table::new(read_explode_schema(qual_i.is_some()));
    for r in 0..t.num_rows() {
        let row = t.row(r);
        let mut ref_pos = eval_expr(pos, Some(RowCtx { schema: t.schema(), row: &row }), env)?
            .as_u64()
            .ok_or_else(|| SqlError::Eval("ReadExplode POS not numeric".into()))?;
        let cigar_list = row[cigar_i]
            .as_list()
            .ok_or_else(|| SqlError::Eval("CIGAR column is not a list".into()))?
            .to_vec();
        let seq_list = row[seq_i]
            .as_list()
            .ok_or_else(|| SqlError::Eval("SEQ column is not a list".into()))?
            .to_vec();
        let qual_list = match qual_i {
            Some(qi) => Some(
                row[qi]
                    .as_list()
                    .ok_or_else(|| SqlError::Eval("QUAL column is not a list".into()))?
                    .to_vec(),
            ),
            None => None,
        };
        let mut seq_idx = 0usize;
        for packed in &cigar_list {
            let p = packed
                .as_u64()
                .ok_or_else(|| SqlError::Eval("CIGAR element not numeric".into()))?;
            let p = u16::try_from(p).map_err(|_| {
                SqlError::Eval(format!("CIGAR element {p:#x} is wider than 16 bits"))
            })?;
            let elem = CigarElem::unpack(p);
            for _ in 0..elem.len {
                match elem.op {
                    CigarOp::Match | CigarOp::SeqMatch | CigarOp::SeqMismatch => {
                        let mut out_row = vec![
                            Value::U64(ref_pos),
                            seq_list.get(seq_idx).cloned().unwrap_or(Value::Null),
                        ];
                        if let Some(q) = &qual_list {
                            out_row.push(q.get(seq_idx).cloned().unwrap_or(Value::Null));
                        }
                        out.push_row(out_row)?;
                        ref_pos += 1;
                        seq_idx += 1;
                    }
                    CigarOp::Ins => {
                        let mut out_row = vec![
                            Value::Ins,
                            seq_list.get(seq_idx).cloned().unwrap_or(Value::Null),
                        ];
                        if let Some(q) = &qual_list {
                            out_row.push(q.get(seq_idx).cloned().unwrap_or(Value::Null));
                        }
                        out.push_row(out_row)?;
                        seq_idx += 1;
                    }
                    CigarOp::Del | CigarOp::RefSkip => {
                        let mut out_row = vec![Value::U64(ref_pos), Value::Del];
                        if qual_list.is_some() {
                            out_row.push(Value::Del);
                        }
                        out.push_row(out_row)?;
                        ref_pos += 1;
                    }
                    CigarOp::SoftClip => {
                        seq_idx += 1;
                    }
                    CigarOp::HardClip => {}
                }
            }
        }
    }
    Ok(out)
}

fn project(
    t: &Table,
    items: &[SelectItem],
    env: &Env,
    bound: Bound<'_, '_>,
) -> Result<Table, SqlError> {
    let mut out = Table::new(project_schema(t.schema(), items, bound)?);
    for r in 0..t.num_rows() {
        let row = t.row(r);
        let ctx = RowCtx { schema: t.schema(), row: &row };
        let mut out_row = Vec::new();
        for item in items {
            match item {
                SelectItem::Star => out_row.extend(row.iter().cloned()),
                SelectItem::Expr { expr, .. } => out_row.push(eval_expr(expr, Some(ctx), env)?),
                SelectItem::Agg { .. } => unreachable!("checked above"),
            }
        }
        out.push_row(out_row)?;
    }
    Ok(out)
}

fn aggregate(
    t: &Table,
    items: &[SelectItem],
    group_by: &[ColRef],
    env: &Env,
    bound: Bound<'_, '_>,
) -> Result<Table, SqlError> {
    let key_cols: Vec<usize> =
        group_by.iter().map(|c| resolve_col(t.schema(), c)).collect::<Result<_, _>>()?;
    // Group rows (a single implicit group without GROUP BY).
    let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    let mut index: HashMap<Vec<String>, usize> = HashMap::new();
    for r in 0..t.num_rows() {
        let row = t.row(r);
        let key: Vec<Value> = key_cols.iter().map(|&i| row[i].clone()).collect();
        let key_str: Vec<String> = key.iter().map(ToString::to_string).collect();
        let slot = *index.entry(key_str).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[slot].1.push(r);
    }
    if group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let mut out = Table::new(aggregate_schema(t.schema(), items, group_by, bound)?);
    for (key, rows) in &groups {
        let mut out_row = Vec::new();
        for item in items {
            match item {
                SelectItem::Agg { func, arg, .. } => {
                    out_row.push(eval_agg(t, rows, *func, arg.as_ref(), env)?);
                }
                SelectItem::Expr { expr: Expr::Col(c), .. } => {
                    // Grouped column: take from the key.
                    let pos = group_by
                        .iter()
                        .position(|g| g == c)
                        .ok_or_else(|| SqlError::Eval(format!(
                            "column {} not in GROUP BY",
                            c.display_name()
                        )))?;
                    out_row.push(key[pos].clone());
                }
                _ => unreachable!("checked above"),
            }
        }
        out.push_row(out_row)?;
    }
    Ok(out)
}

fn eval_agg(
    t: &Table,
    rows: &[usize],
    func: AggFn,
    arg: Option<&Expr>,
    env: &Env,
) -> Result<Value, SqlError> {
    let mut sum = 0u64;
    let mut count = 0u64;
    let mut min: Option<u64> = None;
    let mut max: Option<u64> = None;
    for &r in rows {
        let row = t.row(r);
        let ctx = RowCtx { schema: t.schema(), row: &row };
        let v = match arg {
            Some(e) => eval_expr(e, Some(ctx), env)?,
            None => Value::U64(1),
        };
        match &v {
            Value::U64(n) => {
                sum += n;
                count += 1;
                min = Some(min.map_or(*n, |m| m.min(*n)));
                max = Some(max.map_or(*n, |m| m.max(*n)));
            }
            Value::Bool(b) => {
                sum += u64::from(*b);
                count += 1;
            }
            // NULL and sentinel cells do not contribute to SUM/MIN/MAX but
            // COUNT(expr) still counts sentinel-valued rows, matching the
            // hardware Reducer (a mismatch at an indel is a mismatch).
            Value::Ins | Value::Del => count += 1,
            _ => {}
        }
    }
    Ok(match func {
        AggFn::Sum => Value::U64(sum),
        AggFn::Count => Value::U64(count),
        AggFn::Min => min.map_or(Value::Null, Value::U64),
        AggFn::Max => max.map_or(Value::Null, Value::U64),
    })
}

fn join(
    lt: &Table,
    rt: &Table,
    kind: JoinKind,
    left_key: &ColRef,
    right_key: &ColRef,
) -> Result<Table, SqlError> {
    let lk = resolve_col(lt.schema(), left_key)?;
    let rk = resolve_col(rt.schema(), right_key)?;
    let mut out = Table::new(join_schema(lt.schema(), rt.schema(), kind, left_key, right_key));

    // Hash the right side.
    let mut right_index: HashMap<String, Vec<usize>> = HashMap::new();
    for r in 0..rt.num_rows() {
        let key = rt.row(r)[rk].clone();
        if !key.is_marker() && !key.is_null() {
            right_index.entry(key.to_string()).or_default().push(r);
        }
    }
    let mut right_matched = vec![false; rt.num_rows()];
    for l in 0..lt.num_rows() {
        let lrow = lt.row(l);
        let key = &lrow[lk];
        let matches = if key.is_marker() || key.is_null() {
            None
        } else {
            right_index.get(&key.to_string())
        };
        match matches {
            Some(rows) => {
                for &r in rows {
                    right_matched[r] = true;
                    let mut out_row = lrow.clone();
                    out_row.extend(rt.row(r));
                    out.push_row(out_row)?;
                }
            }
            None => {
                if kind != JoinKind::Inner {
                    // Pad the right side with the Del sentinel, matching
                    // the hardware Joiner's padding.
                    let mut out_row = lrow.clone();
                    out_row.extend(std::iter::repeat_n(Value::Del, rt.num_columns()));
                    out.push_row(out_row)?;
                }
            }
        }
    }
    if kind == JoinKind::Outer {
        for (r, matched) in right_matched.iter().enumerate() {
            if !matched {
                let mut out_row: Vec<Value> =
                    std::iter::repeat_n(Value::Del, lt.num_columns()).collect();
                out_row.extend(rt.row(r));
                out.push_row(out_row)?;
            }
        }
    }
    Ok(out)
}

/// A parsed multi-statement script.
#[derive(Debug, Clone)]
pub struct Script {
    stmts: Vec<Statement>,
}

impl Script {
    /// Parses a script.
    ///
    /// # Errors
    ///
    /// Returns [`SqlError`] on lex/parse failure.
    pub fn parse(src: &str) -> Result<Script, SqlError> {
        Ok(Script { stmts: parse_script(src)? })
    }

    /// The parsed statements.
    #[must_use]
    pub fn statements(&self) -> &[Statement] {
        &self.stmts
    }

    /// Runs the script against a catalog with a fresh environment.
    ///
    /// # Errors
    ///
    /// Returns the first evaluation error.
    pub fn run(&self, catalog: &mut Catalog) -> Result<(), SqlError> {
        let mut env = Env::default();
        run_statements(&self.stmts, catalog, &mut env)
    }
}

fn run_statements(
    stmts: &[Statement],
    catalog: &mut Catalog,
    env: &mut Env,
) -> Result<(), SqlError> {
    for stmt in stmts {
        match stmt {
            Statement::CreateTableAs { name, query } => {
                let plan = lower_query(query);
                let table = execute_plan(&plan, catalog, env)?;
                catalog.register(name, table);
            }
            Statement::Insert { name, query } => {
                let plan = lower_query(query);
                let table = execute_plan(&plan, catalog, env)?;
                match catalog.remove(name) {
                    Some(mut existing) => {
                        for r in 0..table.num_rows() {
                            existing.push_row(table.row(r))?;
                        }
                        catalog.register(name, existing);
                    }
                    None => catalog.register(name, table),
                }
            }
            Statement::Declare { name } => {
                env.set_var(name, Value::Null);
            }
            Statement::Set { name, expr } => {
                let v = eval_expr(expr, None, env)?;
                env.set_var(name, v);
            }
            Statement::ForLoop { var, table, body } => {
                let t = catalog
                    .table(table)
                    .ok_or_else(|| SqlError::Unknown { kind: "table", name: table.clone() })?
                    .clone();
                for r in 0..t.num_rows() {
                    env.rows.insert(
                        var.clone(),
                        RowBinding { schema: t.schema().clone(), values: t.row(r) },
                    );
                    run_statements(body, catalog, env)?;
                }
                env.rows.remove(var);
            }
            Statement::Exec { module, inputs } => {
                let f = catalog
                    .module(module)
                    .ok_or_else(|| SqlError::Unknown { kind: "module", name: module.clone() })?;
                let tables: Vec<&Table> = inputs
                    .iter()
                    .map(|n| {
                        catalog
                            .table(n)
                            .ok_or_else(|| SqlError::Unknown { kind: "table", name: n.clone() })
                    })
                    .collect::<Result<_, _>>()?;
                let out = f(&tables)?;
                let out_name = format!("{module}_OUT");
                drop(tables);
                catalog.register(&out_name, out);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog_with(name: &str, cols: Vec<(&str, Column)>) -> Catalog {
        let schema = Schema::new(
            cols.iter().map(|(n, c)| Field::new(n, c.dtype())).collect(),
        );
        let table =
            Table::from_columns(schema, cols.into_iter().map(|(_, c)| c).collect()).unwrap();
        let mut cat = Catalog::new();
        cat.register(name, table);
        cat
    }

    #[test]
    fn select_where_project() {
        let mut cat = catalog_with(
            "T",
            vec![("X", Column::U32(vec![1, 5, 9])), ("Y", Column::U32(vec![10, 50, 90]))],
        );
        Script::parse("CREATE TABLE S AS SELECT Y FROM T WHERE X > 1")
            .unwrap()
            .run(&mut cat)
            .unwrap();
        let s = cat.table("S").unwrap();
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.get(0, "Y").unwrap(), Value::U64(50));
    }

    #[test]
    fn aggregate_whole_table() {
        let mut cat = catalog_with("T", vec![("X", Column::U32(vec![1, 2, 3]))]);
        Script::parse("CREATE TABLE S AS SELECT SUM(X), COUNT(*), MIN(X), MAX(X) FROM T")
            .unwrap()
            .run(&mut cat)
            .unwrap();
        let s = cat.table("S").unwrap();
        assert_eq!(s.row(0), vec![Value::U64(6), Value::U64(3), Value::U64(1), Value::U64(3)]);
    }

    #[test]
    fn group_by() {
        let mut cat = catalog_with(
            "T",
            vec![
                ("G", Column::U8(vec![1, 1, 2])),
                ("X", Column::U32(vec![10, 20, 5])),
            ],
        );
        Script::parse("CREATE TABLE S AS SELECT G, SUM(X) FROM T GROUP BY G")
            .unwrap()
            .run(&mut cat)
            .unwrap();
        let s = cat.table("S").unwrap();
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.get(0, "SUM").unwrap(), Value::U64(30));
        assert_eq!(s.get(1, "SUM").unwrap(), Value::U64(5));
    }

    #[test]
    fn inner_join_by_key() {
        let mut cat = catalog_with(
            "A",
            vec![("K", Column::U32(vec![1, 2, 3])), ("VA", Column::U32(vec![10, 20, 30]))],
        );
        let b = Table::from_columns(
            Schema::new(vec![Field::new("K", DataType::U32), Field::new("VB", DataType::U32)]),
            vec![Column::U32(vec![2, 3, 4]), Column::U32(vec![200, 300, 400])],
        )
        .unwrap();
        cat.register("B", b);
        Script::parse("CREATE TABLE S AS SELECT A.VA, B.VB FROM A INNER JOIN B ON A.K = B.K")
            .unwrap()
            .run(&mut cat)
            .unwrap();
        let s = cat.table("S").unwrap();
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.get(0, "A.VA").unwrap(), Value::U64(20));
        assert_eq!(s.get(0, "B.VB").unwrap(), Value::U64(200));
    }

    #[test]
    fn left_join_pads_with_del() {
        let mut cat = catalog_with("A", vec![("K", Column::U32(vec![1, 2]))]);
        let b = Table::from_columns(
            Schema::new(vec![Field::new("K", DataType::U32)]),
            vec![Column::U32(vec![2])],
        )
        .unwrap();
        cat.register("B", b);
        Script::parse("CREATE TABLE S AS SELECT * FROM A LEFT JOIN B ON A.K = B.K")
            .unwrap()
            .run(&mut cat)
            .unwrap();
        let s = cat.table("S").unwrap();
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.get(0, "B.K").unwrap(), Value::Del);
    }

    #[test]
    fn order_by_sorts_rows() {
        let mut cat = catalog_with(
            "T",
            vec![
                ("CHR", Column::U8(vec![2, 1, 1])),
                ("POS", Column::U32(vec![5, 9, 3])),
            ],
        );
        Script::parse("CREATE TABLE S AS SELECT * FROM T ORDER BY CHR, POS")
            .unwrap()
            .run(&mut cat)
            .unwrap();
        let s = cat.table("S").unwrap();
        assert_eq!(s.get(0, "POS").unwrap(), Value::U64(3));
        assert_eq!(s.get(1, "POS").unwrap(), Value::U64(9));
        assert_eq!(s.get(2, "CHR").unwrap(), Value::U64(2));

        Script::parse("CREATE TABLE D AS SELECT * FROM T ORDER BY POS DESC")
            .unwrap()
            .run(&mut cat)
            .unwrap();
        let d = cat.table("D").unwrap();
        assert_eq!(d.get(0, "POS").unwrap(), Value::U64(9));
        assert_eq!(d.get(2, "POS").unwrap(), Value::U64(3));
    }

    #[test]
    fn order_by_then_limit() {
        let mut cat = catalog_with("T", vec![("X", Column::U32(vec![4, 1, 3, 2]))]);
        Script::parse("CREATE TABLE S AS SELECT * FROM T ORDER BY X LIMIT 2")
            .unwrap()
            .run(&mut cat)
            .unwrap();
        let s = cat.table("S").unwrap();
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.get(0, "X").unwrap(), Value::U64(1));
        assert_eq!(s.get(1, "X").unwrap(), Value::U64(2));
    }

    #[test]
    fn limit_with_offset() {
        let mut cat = catalog_with("T", vec![("X", Column::U32(vec![0, 1, 2, 3, 4]))]);
        Script::parse("CREATE TABLE S AS SELECT * FROM T LIMIT 1, 2")
            .unwrap()
            .run(&mut cat)
            .unwrap();
        let s = cat.table("S").unwrap();
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.get(0, "X").unwrap(), Value::U64(1));
    }

    #[test]
    fn pos_explode() {
        let mut cat = catalog_with(
            "R",
            vec![
                ("POS", Column::U32(vec![100])),
                ("SEQ", Column::ListU8(vec![vec![0, 1, 2]])),
            ],
        );
        Script::parse("CREATE TABLE S AS PosExplode(R.SEQ, R.POS) FROM R")
            .unwrap()
            .run(&mut cat)
            .unwrap();
        let s = cat.table("S").unwrap();
        assert_eq!(s.num_rows(), 3);
        assert_eq!(s.get(2, "POS").unwrap(), Value::U64(102));
        assert_eq!(s.get(2, "SEQ").unwrap(), Value::U64(2));
    }

    #[test]
    fn read_explode_matches_figure3() {
        // POS=104, CIGAR=2S3M1I1M1D2M, SEQ=AGGTAAACA with qualities.
        let cigar: genesis_types::Cigar = "2S3M1I1M1D2M".parse().unwrap();
        let packed = cigar.pack().unwrap();
        let seq = genesis_types::Base::seq_from_str("AGGTAAACA").unwrap();
        let mut cat = catalog_with(
            "R",
            vec![
                ("POS", Column::U32(vec![104])),
                ("CIGAR", Column::ListU16(vec![packed])),
                ("SEQ", Column::ListU8(vec![seq.iter().map(|b| b.code()).collect()])),
                ("QUAL", Column::ListU8(vec![vec![2, 2, 24, 29, 29, 32, 32, 33, 30]])),
            ],
        );
        Script::parse("CREATE TABLE S AS ReadExplode(R.POS, R.CIGAR, R.SEQ, R.QUAL) FROM R")
            .unwrap()
            .run(&mut cat)
            .unwrap();
        let s = cat.table("S").unwrap();
        assert_eq!(s.num_rows(), 8);
        // Row 3 is the inserted base; row 5 the deletion.
        assert_eq!(s.get(3, "POS").unwrap(), Value::Ins);
        assert_eq!(s.get(5, "SEQ").unwrap(), Value::Del);
        assert_eq!(s.get(5, "QUAL").unwrap(), Value::Del);
        assert_eq!(s.get(0, "POS").unwrap(), Value::U64(104));
        assert_eq!(s.get(7, "POS").unwrap(), Value::U64(110));
        // A packed element is 16 bits: a wider one is an error, never the
        // element its low 16 bits spell (`4M` here).
        let mut cat = catalog_with(
            "R",
            vec![
                ("POS", Column::U32(vec![104])),
                ("CIGAR", Column::Cell(vec![Value::List(vec![Value::U64((1 << 20) | 4)])])),
                ("SEQ", Column::ListU8(vec![vec![0, 1, 2, 3]])),
            ],
        );
        let err = Script::parse("CREATE TABLE S AS ReadExplode(R.POS, R.CIGAR, R.SEQ) FROM R")
            .unwrap()
            .run(&mut cat)
            .unwrap_err();
        let want = "evaluation error: CIGAR element 0x100004 is wider than 16 bits";
        assert_eq!(err.to_string(), want);
    }

    #[test]
    fn for_loop_with_variables_and_insert() {
        let mut cat = catalog_with("T", vec![("X", Column::U32(vec![2, 7]))]);
        let src = "DECLARE @acc int \
                   FOR Row IN T: \
                     SET @acc = Row.X + 1 \
                     INSERT INTO Out SELECT @acc AS V FROM Row \
                   END LOOP;";
        Script::parse(src).unwrap().run(&mut cat).unwrap();
        let out = cat.table("Out").unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.get(0, "V").unwrap(), Value::U64(3));
        assert_eq!(out.get(1, "V").unwrap(), Value::U64(8));
    }

    #[test]
    fn exec_custom_module() {
        let mut cat = catalog_with("In1", vec![("X", Column::U32(vec![5]))]);
        cat.register_module(
            "Double",
            Box::new(|ins| {
                let t = ins[0];
                let mut out = Table::new(t.schema().clone());
                for r in 0..t.num_rows() {
                    let v = t.row(r)[0].as_u64().unwrap() * 2;
                    out.push_row(vec![Value::U64(v)]).map_err(SqlError::Table)?;
                }
                Ok(out)
            }),
        );
        Script::parse("EXEC Double In1 = _").unwrap().run(&mut cat).unwrap();
        assert_eq!(cat.table("Double_OUT").unwrap().get(0, "X").unwrap(), Value::U64(10));
    }

    #[test]
    fn partition_scan() {
        let mut cat = Catalog::new();
        let t = Table::from_columns(
            Schema::new(vec![Field::new("X", DataType::U32)]),
            vec![Column::U32(vec![42])],
        )
        .unwrap();
        cat.register_partition("READS", 7, t);
        Script::parse("CREATE TABLE S AS SELECT * FROM READS PARTITION (7)")
            .unwrap()
            .run(&mut cat)
            .unwrap();
        assert_eq!(cat.table("S").unwrap().get(0, "X").unwrap(), Value::U64(42));
        assert!(Script::parse("CREATE TABLE S AS SELECT * FROM READS PARTITION (8)")
            .unwrap()
            .run(&mut cat)
            .is_err());
    }

    #[test]
    fn sentinel_comparison_semantics() {
        assert_eq!(
            eval_binop(BinOp::Eq, &Value::Ins, &Value::Ins).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_binop(BinOp::Ne, &Value::Del, &Value::U64(0)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_binop(BinOp::Lt, &Value::Del, &Value::U64(9)).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn the_finder_resolves_a_reference_as_both_engines_do() {
        let names = ["POS", "T.X", "U.X", "R.K"];
        let find = |c: &ColRef| find_col(names.iter().copied(), c);
        assert_eq!(find(&ColRef::qualified("T", "X")), Ok(1), "an exact qualified name");
        assert_eq!(find(&ColRef::qualified("READS", "POS")), Ok(0), "qualified finds bare");
        assert_eq!(find(&ColRef::bare("K")), Ok(3), "bare finds a unique qualified name");
        assert_eq!(find(&ColRef::bare("X")), Err(vec![1, 2]), "ambiguous: every hit");
        assert_eq!(find(&ColRef::bare("NOPE")), Err(vec![]), "unknown: no hit");
        assert_eq!(find(&ColRef::bare("OS")), Err(vec![]), "a suffix starts after a dot");
        // The engine maps the two failures to its own errors.
        let schema = Schema::new(names.iter().map(|n| Field::new(n, DataType::U32)).collect());
        let err = |c| resolve_col(&schema, &c).unwrap_err();
        let unknown = SqlError::Unknown { kind: "column", name: "NOPE".into() };
        assert_eq!(err(ColRef::bare("NOPE")).to_string(), unknown.to_string());
        let ambiguous = SqlError::Ambiguous { name: "X".into() };
        assert_eq!(err(ColRef::bare("X")).to_string(), ambiguous.to_string());
    }

    #[test]
    fn may_resolve_follows_resolve_through_join_prefixes() {
        let r = |t: Option<&str>, c: &str| ColRef { table: t.map(str::to_owned), column: c.into() };
        assert!(may_resolve("POS", &r(None, "POS")));
        assert!(may_resolve("POS", &r(Some("PAIRS"), "POS")));
        assert!(may_resolve("PAIRS.POS", &r(None, "POS")));
        assert!(may_resolve("POS", &r(None, "PAIRS.POS")));
        assert!(!may_resolve("MPOS", &r(None, "POS")));
        assert!(!may_resolve("POS", &r(Some("PAIRS"), "MPOS")));
    }

    #[test]
    fn items_aggregates_and_join_sides_are_named_once() {
        let x = Expr::Col(ColRef::qualified("T", "X"));
        let one = Box::new(Expr::Number(1));
        let plus = Expr::Bin { op: BinOp::Add, lhs: Box::new(x.clone()), rhs: one };
        assert_eq!(item_name(Some("Y"), &plus, 2), "Y");
        assert_eq!(item_name(None, &x, 2), "T.X");
        assert_eq!(item_name(None, &plus, 2), "EXPR2");
        let aggs = [AggFn::Count, AggFn::Sum, AggFn::Min, AggFn::Max];
        for (func, name) in aggs.into_iter().zip(["COUNT", "SUM", "MIN", "MAX"]) {
            assert_eq!(agg_name(None, func), name);
            assert_eq!(agg_name(Some("N"), func), "N");
        }
        assert_eq!(qualify(Some("R"), "K"), "R.K");
        assert_eq!(qualify(Some("R"), "T.K"), "T.K", "a dotted name keeps its prefix");
        assert_eq!(qualify(None, "K"), "K");
    }

    #[test]
    fn a_number_literal_comparison_is_recognized_on_either_side() {
        let x = || Box::new(Expr::Col(ColRef::bare("X")));
        let five = || Box::new(Expr::Number(5));
        let bin = |op, lhs, rhs| Expr::Bin { op, lhs, rhs };
        let of = |e: &Expr| literal_cmp(e).map(|(c, op, n)| (c.column.clone(), op, n));
        let x_is = |op| Some(("X".to_owned(), op, 5));
        assert_eq!(of(&bin(BinOp::Le, x(), five())), x_is(BinOp::Le));
        assert_eq!(of(&bin(BinOp::Gt, five(), x())), x_is(BinOp::Lt), "`5 > X` is `X < 5`");
        assert_eq!(of(&bin(BinOp::Ge, five(), x())), x_is(BinOp::Le));
        assert_eq!(of(&bin(BinOp::Eq, five(), x())), x_is(BinOp::Eq));
        assert_eq!(of(&bin(BinOp::Ne, x(), five())), None, "`<>` keeps markers");
        let lt = Box::new(bin(BinOp::Lt, x(), five()));
        assert_eq!(of(&bin(BinOp::Or, lt.clone(), lt)), None, "`OR` is no comparison");
        let y = Box::new(Expr::Col(ColRef::bare("Y")));
        assert_eq!(of(&bin(BinOp::Lt, x(), y)), None, "column against column");
    }

    #[test]
    fn sort_and_limit_run_over_a_table() {
        let fields = vec![Field::new("K", DataType::U32), Field::new("V", DataType::U32)];
        let cols = vec![Column::U32(vec![2, 1, 2, 3]), Column::U32(vec![10, 20, 30, 40])];
        let t = Table::from_columns(Schema::new(fields), cols).unwrap();
        let values = |t: &Table, name| -> Vec<u64> {
            (0..t.num_rows()).map(|r| t.get(r, name).unwrap().as_u64().unwrap()).collect()
        };
        let desc = sort_table(&t, &[(ColRef::bare("K"), true)]).unwrap();
        assert_eq!(values(&desc, "K"), [3, 2, 2, 1]);
        assert_eq!(values(&desc, "V"), [40, 10, 30, 20], "ties keep their input order");
        assert_eq!(values(&limit_table(&desc, 1, 2).unwrap(), "V"), [10, 30]);
        assert_eq!(values(&limit_table(&t, 3, 9).unwrap(), "V"), [40], "a count past the end");
        let past = limit_table(&t, 9, 2).unwrap();
        assert_eq!((past.num_rows(), past.schema()), (0, t.schema()), "an offset past the end");
        let unknown = sort_table(&t, &[(ColRef::bare("NOPE"), false)]);
        assert!(matches!(unknown, Err(SqlError::Unknown { kind: "column", .. })));
    }

    #[test]
    fn unknown_column_and_ambiguity() {
        let cat = catalog_with("T", vec![("X", Column::U32(vec![1]))]);
        let env = Env::default();
        let plan = lower_query(&crate::ast::Query::Select {
            items: vec![SelectItem::Expr {
                expr: Expr::Col(ColRef::bare("NOPE")),
                alias: None,
            }],
            from: crate::ast::TableRef::Named { name: "T".into(), partition: None },
            join: None,
            filter: None,
            group_by: vec![],
            order_by: vec![],
            limit: None,
        });
        assert!(matches!(
            execute_plan(&plan, &cat, &env),
            Err(SqlError::Unknown { kind: "column", .. })
        ));
    }
}

#[cfg(test)]
mod error_path_tests {
    use super::*;

    fn one_col_catalog() -> Catalog {
        let schema = Schema::new(vec![Field::new("X", DataType::U32)]);
        let t = Table::from_columns(schema, vec![Column::U32(vec![1, 2])]).unwrap();
        let mut cat = Catalog::new();
        cat.register("T", t);
        cat
    }

    #[test]
    fn unknown_table_reported() {
        let mut cat = one_col_catalog();
        let err = Script::parse("CREATE TABLE S AS SELECT * FROM NOPE")
            .unwrap()
            .run(&mut cat)
            .unwrap_err();
        assert!(matches!(err, SqlError::Unknown { kind: "table", .. }), "{err}");
    }

    #[test]
    fn unknown_variable_reported() {
        let mut cat = one_col_catalog();
        let err = Script::parse("CREATE TABLE S AS SELECT * FROM T LIMIT @nope, 1")
            .unwrap()
            .run(&mut cat)
            .unwrap_err();
        assert!(matches!(err, SqlError::Unknown { kind: "variable", .. }), "{err}");
    }

    #[test]
    fn arithmetic_on_list_reported() {
        let schema = Schema::new(vec![Field::new("L", DataType::ListU8)]);
        let t = Table::from_columns(schema, vec![Column::ListU8(vec![vec![1, 2]])]).unwrap();
        let mut cat = Catalog::new();
        cat.register("T", t);
        let err = Script::parse("CREATE TABLE S AS SELECT L + 1 FROM T")
            .unwrap()
            .run(&mut cat)
            .unwrap_err();
        assert!(matches!(err, SqlError::Eval(_)), "{err}");
    }

    #[test]
    fn for_loop_over_missing_table_reported() {
        let mut cat = one_col_catalog();
        let err = Script::parse("FOR r IN Missing: SET @x = 1 END LOOP;")
            .unwrap()
            .run(&mut cat)
            .unwrap_err();
        assert!(matches!(err, SqlError::Unknown { kind: "table", .. }), "{err}");
    }

    #[test]
    fn exec_unknown_module_reported() {
        let mut cat = one_col_catalog();
        let err = Script::parse("EXEC Nope T = _").unwrap().run(&mut cat).unwrap_err();
        assert!(matches!(err, SqlError::Unknown { kind: "module", .. }), "{err}");
    }

    #[test]
    fn ambiguous_column_after_self_join() {
        let mut cat = one_col_catalog();
        // Join T with itself without qualification: selecting bare X is
        // ambiguous (both sides expose a column ending in X).
        let err = Script::parse(
            "CREATE TABLE S AS SELECT X FROM T INNER JOIN (SELECT * FROM T) ON T.X = T.X",
        )
        .unwrap()
        .run(&mut cat)
        .unwrap_err();
        assert!(
            matches!(err, SqlError::Ambiguous { .. } | SqlError::Unknown { .. }),
            "{err}"
        );
    }
}
