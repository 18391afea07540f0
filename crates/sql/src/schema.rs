//! Result typing: the schema a plan's result has, one rule per node.
//!
//! Both engines type a result by these rules: the software engine
//! ([`crate::exec`]) builds every node's table in its node's schema, and
//! the hardware compiler in `genesis-core` builds its gathered columns
//! from [`LogicalPlan::output_schema`]. A rule reads only its inputs'
//! schemas, so a query typed whole and the same query run view by view
//! through a script's catalog agree.

use crate::ast::{AggFn, BinOp, ColRef, Expr, JoinKind, SelectItem};
use crate::catalog::Catalog;
use crate::error::SqlError;
use crate::exec::{agg_name, item_name, literal_cmp, qualify, resolve_col};
use crate::plan::LogicalPlan;
use genesis_types::{DataType, Field, Schema};

/// The row schema of a `FOR` loop variable in scope, by name: a scan of
/// the name reads that one row, and a column qualified by it reads the
/// row's field.
pub(crate) type Bound<'b, 's> = &'b dyn Fn(&str) -> Option<&'s Schema>;

impl LogicalPlan {
    /// The schema of this plan's result on `catalog`: what
    /// [`crate::exec::execute_plan`] returns, and what the hardware
    /// compiler types its output by.
    ///
    /// - A column keeps its type through scans, filters, sorts, limits,
    ///   inner joins and plain column references.
    /// - `COUNT`, `SUM`, grouped `MIN`/`MAX` over numbers and `+`/`-`
    ///   are `U64`; comparisons, `AND` and `OR` are `Bool`; a
    ///   `PosExplode`'s `POS` is `U64` and its items the list's element
    ///   type.
    /// - `Cell` is left where a value can be `Null`, `Ins` or `Del`: a
    ///   scalar `MIN`/`MAX` (an empty input), the padded side of a
    ///   `LEFT`/`OUTER` join, every `ReadExplode` column, a variable, and
    ///   a `Cell` column of the catalog.
    /// - A `Cell` column that a Filter compares with a number literal by
    ///   `=`, `<`, `<=`, `>` or `>=` holds only numbers after it (no
    ///   marker or `NULL` passes such a comparison), so it is `U64`:
    ///   `WHERE POS < n` over a `ReadExplode` types `POS` as `U64`.
    ///
    /// # Errors
    ///
    /// [`SqlError`] when a scanned table does not exist, or when a node
    /// cannot name its columns: an unresolved `GROUP BY` or `PosExplode`
    /// column, or a select item its node does not accept.
    pub fn output_schema(&self, catalog: &Catalog) -> Result<Schema, SqlError> {
        schema_in(self, catalog, &mut Vec::new())
    }
}

/// [`LogicalPlan::output_schema`] with the loop variables in scope,
/// innermost last.
fn schema_in<'p>(
    plan: &'p LogicalPlan,
    catalog: &Catalog,
    loops: &mut Vec<(&'p str, Schema)>,
) -> Result<Schema, SqlError> {
    let mut of = |input: &'p LogicalPlan| schema_in(input, catalog, loops);
    match plan {
        LogicalPlan::Scan { table, partition } => {
            if let Some((_, row)) = loops.iter().rev().find(|(var, _)| var == table) {
                return Ok(row.clone());
            }
            let found = match partition {
                Some(Expr::Number(pid)) => catalog.partition(table, *pid),
                Some(_) => catalog.any_partition(table),
                None => catalog.table(table),
            };
            let found = found.map(|t| t.schema().clone());
            found.ok_or_else(|| SqlError::Unknown { kind: "table", name: table.clone() })
        }
        LogicalPlan::ForEach { var, rows, body } => {
            let rows = of(rows)?;
            loops.push((var, rows));
            let body = schema_in(body, catalog, loops);
            loops.pop();
            body
        }
        LogicalPlan::Sort { input, .. } | LogicalPlan::Limit { input, .. } => of(input),
        LogicalPlan::Filter { input, pred } => {
            let input = of(input)?;
            Ok(filter_schema(&input, pred, &in_scope(loops)))
        }
        LogicalPlan::Project { input, items } => {
            let input = of(input)?;
            project_schema(&input, items, &in_scope(loops))
        }
        LogicalPlan::Aggregate { input, items, group_by } => {
            let input = of(input)?;
            aggregate_schema(&input, items, group_by, &in_scope(loops))
        }
        LogicalPlan::Join { kind, left, right, left_key, right_key } => {
            let (left, right) = (of(left)?, of(right)?);
            Ok(join_schema(&left, &right, *kind, left_key, right_key))
        }
        LogicalPlan::PosExplode { input, array, .. } => {
            pos_explode_schema(&of(input)?, array).map(|(_, schema)| schema)
        }
        LogicalPlan::ReadExplode { input, qual, .. } => {
            of(input)?;
            Ok(read_explode_schema(qual.is_some()))
        }
    }
}

/// The row schemas of `loops` by variable name, innermost first.
fn in_scope<'l>(loops: &'l [(&str, Schema)]) -> impl Fn(&str) -> Option<&'l Schema> + 'l {
    |name| loops.iter().rev().find(|(var, _)| *var == name).map(|(_, row)| row)
}

/// The type of `col`'s values over rows of `input`: a loop row's field
/// when `col` is qualified by a loop variable, else the column it
/// resolves to. `Cell` when it resolves to neither: the engine then
/// reads an `@` variable or fails.
fn col_type(col: &ColRef, input: &Schema, bound: Bound<'_, '_>) -> DataType {
    if let Some(row) = col.table.as_deref().and_then(bound) {
        return row.index_of(&col.column).map_or(DataType::Cell, |i| row.fields()[i].dtype);
    }
    resolve_col(input, col).map_or(DataType::Cell, |i| input.fields()[i].dtype)
}

/// The type of `e`'s values over rows of `input`.
fn expr_type(e: &Expr, input: &Schema, bound: Bound<'_, '_>) -> DataType {
    match e {
        Expr::Number(_) => DataType::U64,
        Expr::Var(_) => DataType::Cell,
        Expr::Col(c) => col_type(c, input, bound),
        // Arithmetic on anything but two numbers is an error.
        Expr::Bin { op: BinOp::Add | BinOp::Sub, .. } => DataType::U64,
        Expr::Bin { .. } => DataType::Bool,
    }
}

fn is_number(dtype: DataType) -> bool {
    matches!(dtype, DataType::U8 | DataType::U16 | DataType::U32 | DataType::U64)
}

/// A Filter's rows keep their input's schema, but a `Cell` column that a
/// conjunct compares with a number literal by `=` or an ordered
/// comparison ([`literal_cmp`]) holds only numbers after it.
pub(crate) fn filter_schema(input: &Schema, pred: &Expr, bound: Bound<'_, '_>) -> Schema {
    let mut fields = input.fields().to_vec();
    narrow(pred, input, bound, &mut fields);
    Schema::new(fields)
}

fn narrow(pred: &Expr, input: &Schema, bound: Bound<'_, '_>, fields: &mut [Field]) {
    if let Expr::Bin { op: BinOp::And, lhs, rhs } = pred {
        narrow(lhs, input, bound, fields);
        narrow(rhs, input, bound, fields);
        return;
    }
    let Some((c, _, _)) = literal_cmp(pred) else { return };
    if c.table.as_deref().and_then(bound).is_some() {
        return;
    }
    if let Ok(i) = resolve_col(input, c) {
        if fields[i].dtype == DataType::Cell {
            fields[i].dtype = DataType::U64;
        }
    }
}

/// A projection's columns: `*` passes the input's through, an expression
/// is named by its alias, its column or its position.
pub(crate) fn project_schema(
    input: &Schema,
    items: &[SelectItem],
    bound: Bound<'_, '_>,
) -> Result<Schema, SqlError> {
    let mut fields = Vec::new();
    for (i, item) in items.iter().enumerate() {
        match item {
            SelectItem::Star => fields.extend(input.fields().iter().cloned()),
            SelectItem::Expr { expr, alias } => {
                let name = item_name(alias.as_deref(), expr, i);
                fields.push(Field::new(&name, expr_type(expr, input, bound)));
            }
            SelectItem::Agg { .. } => {
                return Err(SqlError::Eval("aggregate outside Aggregate node".into()))
            }
        }
    }
    Ok(Schema::new(fields))
}

/// An aggregate's columns: `COUNT` and `SUM` are `U64`, and so is a
/// grouped `MIN`/`MAX` over numbers (every row of a group then counts); a
/// scalar `MIN`/`MAX` is `NULL` over no rows, so `Cell`. A grouped column
/// keeps its type.
pub(crate) fn aggregate_schema(
    input: &Schema,
    items: &[SelectItem],
    group_by: &[ColRef],
    bound: Bound<'_, '_>,
) -> Result<Schema, SqlError> {
    let keys: Vec<usize> =
        group_by.iter().map(|c| resolve_col(input, c)).collect::<Result<_, _>>()?;
    let mut fields = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let field = match item {
            SelectItem::Agg { func, arg, alias } => {
                let name = agg_name(alias.as_deref(), *func);
                let arg = arg.as_ref().map_or(DataType::U64, |a| expr_type(a, input, bound));
                let dtype = match func {
                    AggFn::Count | AggFn::Sum => DataType::U64,
                    AggFn::Min | AggFn::Max if !group_by.is_empty() && is_number(arg) => {
                        DataType::U64
                    }
                    AggFn::Min | AggFn::Max => DataType::Cell,
                };
                Field::new(&name, dtype)
            }
            SelectItem::Expr { expr: expr @ Expr::Col(c), alias } => {
                let name = item_name(alias.as_deref(), expr, i);
                let key = group_by.iter().position(|g| g == c);
                Field::new(&name, key.map_or(DataType::Cell, |k| input.fields()[keys[k]].dtype))
            }
            _ => {
                return Err(SqlError::Eval(format!(
                    "select item {i} must be an aggregate or a grouped column"
                )))
            }
        };
        fields.push(field);
    }
    Ok(Schema::new(fields))
}

/// A join's columns: the left's, then the right's, each qualified by its
/// key's table where it would collide. A side a row can be padded on
/// (`Del`) is `Cell`: the right of a `LEFT` join, both of an `OUTER`.
pub(crate) fn join_schema(
    left: &Schema,
    right: &Schema,
    kind: JoinKind,
    left_key: &ColRef,
    right_key: &ColRef,
) -> Schema {
    let side = |s: &Schema, prefix: Option<&str>, padded: bool| {
        s.fields()
            .iter()
            .map(|f| {
                let dtype = if padded { DataType::Cell } else { f.dtype };
                Field { name: qualify(prefix, &f.name), dtype }
            })
            .collect::<Vec<_>>()
    };
    let mut fields = side(left, left_key.table.as_deref(), kind == JoinKind::Outer);
    fields.extend(side(right, right_key.table.as_deref(), kind != JoinKind::Inner));
    Schema::new(fields)
}

/// A `PosExplode`'s columns, `POS` and the array's name, and the array's
/// index in `input`: positions are numbers, and items have the list's
/// element type (`Cell` for a `Cell` column, whose lists hold any value).
pub(crate) fn pos_explode_schema(
    input: &Schema,
    array: &ColRef,
) -> Result<(usize, Schema), SqlError> {
    let col = resolve_col(input, array)?;
    let field = &input.fields()[col];
    let item = match field.dtype {
        DataType::ListU8 => DataType::U8,
        DataType::ListU16 => DataType::U16,
        DataType::ListBool => DataType::Bool,
        _ => DataType::Cell,
    };
    let fields = vec![Field::new("POS", DataType::U64), Field::new(&field.name, item)];
    Ok((col, Schema::new(fields)))
}

/// A `ReadExplode`'s columns, `POS`, `SEQ` and with a quality column
/// `QUAL`: all `Cell`, since an insertion's position is `Ins`, a
/// deletion's base and quality are `Del`, and a base past the sequence is
/// `NULL`.
pub(crate) fn read_explode_schema(qual: bool) -> Schema {
    let names: &[&str] = if qual { &["POS", "SEQ", "QUAL"] } else { &["POS", "SEQ"] };
    Schema::new(names.iter().map(|n| Field::new(n, DataType::Cell)).collect())
}

#[cfg(test)]
mod tests {
    use crate::ast::Statement;
    use crate::catalog::Catalog;
    use crate::parser::parse_script;
    use crate::plan::{lower_query, LogicalPlan};
    use genesis_types::{Column, DataType, Field, Schema, Table};

    /// `READS(POS U32, CIGAR, SEQ)`, `R(K U32, B U32)` and
    /// `T(A U8, H U16, X U32, C Cell)`, one row each.
    fn catalog() -> Catalog {
        let table = |cols: Vec<(&str, Column)>| {
            let schema = Schema::new(cols.iter().map(|(n, c)| Field::new(n, c.dtype())).collect());
            Table::from_columns(schema, cols.into_iter().map(|(_, c)| c).collect()).unwrap()
        };
        let mut cat = Catalog::new();
        cat.register(
            "READS",
            table(vec![
                ("POS", Column::U32(vec![1])),
                ("CIGAR", Column::ListU16(vec![vec![]])),
                ("SEQ", Column::ListU8(vec![vec![]])),
            ]),
        );
        cat.register("R", table(vec![("K", Column::U32(vec![1])), ("B", Column::U32(vec![2]))]));
        cat.register(
            "T",
            table(vec![
                ("A", Column::U8(vec![1])),
                ("H", Column::U16(vec![2])),
                ("X", Column::U32(vec![3])),
                ("C", Column::Cell(vec![genesis_types::Value::U64(4)])),
            ]),
        );
        cat
    }

    fn plan_of(src: &str) -> LogicalPlan {
        let stmts = parse_script(src).unwrap();
        let Statement::CreateTableAs { query, .. } = &stmts[0] else { panic!() };
        lower_query(query)
    }

    /// The output types of `src`'s first query, by column name.
    fn types(src: &str) -> Vec<(String, DataType)> {
        let schema = plan_of(src).output_schema(&catalog()).unwrap();
        schema.fields().iter().map(|f| (f.name.clone(), f.dtype)).collect()
    }

    fn dtype(src: &str, name: &str) -> DataType {
        let found = types(src).into_iter().find(|(n, _)| n == name);
        found.unwrap_or_else(|| panic!("{src}: no column {name}")).1
    }

    /// The explode `scripts/coverage.sql` reads, as a FROM item (the
    /// query text has one copy, the script).
    fn bases() -> String {
        let script = include_str!("../../../scripts/coverage.sql");
        let explode = script.lines().find(|l| l.starts_with("ReadExplode")).unwrap();
        format!("({explode} FROM READS)")
    }

    #[test]
    fn an_explode_position_is_a_cell() {
        let src = format!("CREATE TABLE O AS SELECT * FROM {}", bases());
        assert_eq!(dtype(&src, "POS"), DataType::Cell);
    }

    #[test]
    fn an_ordered_or_equal_literal_comparison_makes_an_explode_position_a_number() {
        let cmps = ["POS < 9", "POS <= 9", "POS = 9", "POS > 9", "9 >= POS", "SEQ = 1 AND POS < 9"];
        for cmp in cmps {
            let src = format!("CREATE TABLE O AS SELECT * FROM {} WHERE {cmp}", bases());
            assert_eq!(dtype(&src, "POS"), DataType::U64, "{cmp}");
        }
    }

    #[test]
    fn an_unequal_comparison_leaves_an_explode_position_a_cell() {
        for cmp in ["POS <> 9", "POS < 9 OR SEQ = 1", "POS < POS"] {
            let src = format!("CREATE TABLE O AS SELECT * FROM {} WHERE {cmp}", bases());
            assert_eq!(dtype(&src, "POS"), DataType::Cell, "{cmp}");
        }
    }

    #[test]
    fn count_and_sum_are_numbers() {
        let src = format!("CREATE TABLE O AS SELECT COUNT(*), SUM(POS) FROM {}", bases());
        assert_eq!(types(&src), [("COUNT".into(), DataType::U64), ("SUM".into(), DataType::U64)]);
    }

    #[test]
    fn a_scalar_min_is_a_cell_and_a_grouped_min_over_numbers_a_number() {
        assert_eq!(dtype("CREATE TABLE O AS SELECT MIN(X) FROM T", "MIN"), DataType::Cell);
        let grouped = "CREATE TABLE O AS SELECT A, MIN(X), MAX(C) FROM T GROUP BY A";
        assert_eq!(types(grouped)[0].1, DataType::U8);
        assert_eq!(dtype(grouped, "MIN"), DataType::U64);
        assert_eq!(dtype(grouped, "MAX"), DataType::Cell);
    }

    #[test]
    fn a_left_joins_right_side_is_a_cell() {
        let src = "CREATE TABLE O AS SELECT * FROM T LEFT JOIN R ON T.X = R.K";
        assert_eq!(dtype(src, "T.X"), DataType::U32);
        assert_eq!(dtype(src, "R.K"), DataType::Cell);
        assert_eq!(dtype(src, "R.B"), DataType::Cell);
        let inner = "CREATE TABLE O AS SELECT * FROM T INNER JOIN R ON T.X = R.K";
        assert_eq!(dtype(inner, "R.B"), DataType::U32);
    }

    #[test]
    fn select_star_keeps_the_catalog_types() {
        let catalog_types = [
            ("A".into(), DataType::U8),
            ("H".into(), DataType::U16),
            ("X".into(), DataType::U32),
            ("C".into(), DataType::Cell),
        ];
        assert_eq!(types("CREATE TABLE O AS SELECT * FROM T"), catalog_types);
        assert_eq!(types("CREATE TABLE O AS SELECT * FROM T WHERE X < 5"), catalog_types);
        assert_eq!(dtype("CREATE TABLE O AS SELECT * FROM T WHERE C = 4", "C"), DataType::U64);
    }

    #[test]
    fn arithmetic_is_a_number_and_a_comparison_a_bool() {
        let src = "CREATE TABLE O AS SELECT X - A AS D, A == H AS E, A FROM T";
        assert_eq!(
            types(src),
            [("D".into(), DataType::U64), ("E".into(), DataType::Bool), ("A".into(), DataType::U8)]
        );
    }

    #[test]
    fn a_pos_explode_types_positions_and_items() {
        let src = "CREATE TABLE O AS PosExplode (READS.SEQ, READS.POS) FROM READS";
        assert_eq!(types(src), [("POS".into(), DataType::U64), ("SEQ".into(), DataType::U8)]);
    }
}
