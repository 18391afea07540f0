//! Differential testing of the general plan→pipeline compiler: for
//! randomly generated tables and plans, the compiled hardware pipeline
//! (cycle-level simulation) must produce bit-identical tables to the
//! software engine (`genesis::sql::exec`).
//!
//! Five property tests × 64 cases = 320 random plan/data/replication
//! combinations per run, spanning filters, computed projections, scalar
//! and grouped aggregation, joins, and host epilogues (`ORDER BY` /
//! `LIMIT`), each compiled with pushdown on and off. Their tables carry
//! columns no plan reads, one of them a list column wherever the output
//! does not carry every column, so a scan lowers only if projection
//! pushdown prunes it. A final deterministic block checks that every
//! rejection is a structured `CoreError::Unsupported` naming the
//! offending plan node.

use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::core::CoreError;
use genesis::hw::EngineMode;
use genesis::sql::ast::{AggFn, BinOp, ColRef, Expr, JoinKind, SelectItem};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::{Column, DataType, Field, Schema, Table};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Both simulation engines.
const MATRIX: [EngineMode; 2] = [EngineMode::Fast, EngineMode::Reference];

fn table_u32(cols: &[(&str, Vec<u32>)]) -> Table {
    let schema = Schema::new(cols.iter().map(|(n, _)| Field::new(n, DataType::U32)).collect());
    let columns = cols.iter().map(|(_, v)| Column::U32(v.clone())).collect();
    Table::from_columns(schema, columns).unwrap()
}

/// `cols` between two columns no plan reads: a leading `U8` and, with
/// `list`, a trailing list column no Memory Reader can stream.
fn padded(cols: &[(&str, Vec<u32>)], list: bool) -> Table {
    let rows = cols.first().map_or(0, |(_, v)| v.len());
    let mut fields = vec![Field::new("PAD", DataType::U8)];
    let mut columns = vec![Column::U8((0..rows).map(|r| (r % 7) as u8).collect())];
    for (name, vals) in cols {
        fields.push(Field::new(name, DataType::U32));
        columns.push(Column::U32(vals.clone()));
    }
    if list {
        fields.push(Field::new("TAGS", DataType::ListU8));
        columns.push(Column::ListU8((0..rows).map(|r| vec![r as u8; r % 3]).collect()));
    }
    Table::from_columns(Schema::new(fields), columns).unwrap()
}

fn table_u64(cols: &[(&str, Vec<u64>)]) -> Table {
    let schema = Schema::new(cols.iter().map(|(n, _)| Field::new(n, DataType::U64)).collect());
    let columns = cols.iter().map(|(_, v)| Column::U64(v.clone())).collect();
    Table::from_columns(schema, columns).unwrap()
}

fn scan(t: &str) -> LogicalPlan {
    LogicalPlan::Scan { table: t.to_owned(), partition: None }
}

fn col(name: &str) -> Expr {
    Expr::Col(ColRef::bare(name))
}

fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
}

const CMP_OPS: [BinOp; 6] = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];

/// Compiles `plan` with pushdown on and off, runs it on the simulated
/// hardware at `factor` replicated pipelines, runs it on the software
/// engine, and fails the test case unless the tables agree bit for bit.
fn differential(plan: &LogicalPlan, catalog: &Catalog, factor: usize) -> Result<(), TestCaseError> {
    let sw = execute_plan(plan, catalog, &Env::default())
        .map_err(|e| TestCaseError::fail(format!("software run failed: {e}")))?;
    for pushdown in [true, false] {
        let what = format!("pushdown {pushdown}");
        let (hw, _) = Compiler::new(DeviceConfig::small().with_pushdown(pushdown))
            .compile(plan, catalog)
            .map_err(|e| TestCaseError::fail(format!("{what}: compile failed: {e}")))?
            .execute_replicated(catalog, factor)
            .map_err(|e| TestCaseError::fail(format!("{what}: hardware run failed: {e}")))?;
        assert_tables(&hw, &sw, &what)?;
    }
    Ok(())
}

/// [`differential`] swept over the full engine matrix, with the plan
/// additionally compiled under pushdown-off so the absorbed-at-the-scan
/// and Filter-module paths are pinned against each other bit for bit.
fn differential_engines(
    plan: &LogicalPlan,
    catalog: &Catalog,
    factor: usize,
) -> Result<(), TestCaseError> {
    let sw = execute_plan(plan, catalog, &Env::default())
        .map_err(|e| TestCaseError::fail(format!("software run failed: {e}")))?;
    for engine in MATRIX {
        for (label, pushdown) in [("pushdown", true), ("no-pushdown", false)] {
            let what = format!("{engine:?}/{label} @{factor}x");
            let cfg = DeviceConfig::small().with_engine(engine).with_pushdown(pushdown);
            let (hw, _) = Compiler::new(cfg)
                .compile(plan, catalog)
                .map_err(|e| TestCaseError::fail(format!("{what}: compile failed: {e}")))?
                .execute_replicated(catalog, factor)
                .map_err(|e| TestCaseError::fail(format!("{what}: hardware run failed: {e}")))?;
            assert_tables(&hw, &sw, &what)?;
        }
    }
    Ok(())
}

fn assert_tables(hw: &Table, sw: &Table, what: &str) -> Result<(), TestCaseError> {
    let hw_names: Vec<&str> = hw.schema().fields().iter().map(|f| f.name.as_str()).collect();
    let sw_names: Vec<&str> = sw.schema().fields().iter().map(|f| f.name.as_str()).collect();
    if hw_names != sw_names {
        return Err(TestCaseError::fail(format!(
            "{what}: schema differs: hw {hw_names:?} sw {sw_names:?}"
        )));
    }
    if hw.num_rows() != sw.num_rows() {
        return Err(TestCaseError::fail(format!(
            "{what}: row count differs: hw {} sw {}",
            hw.num_rows(),
            sw.num_rows()
        )));
    }
    for r in 0..hw.num_rows() {
        if hw.row(r) != sw.row(r) {
            return Err(TestCaseError::fail(format!(
                "{what}: row {r} differs: hw {:?} sw {:?}",
                hw.row(r),
                sw.row(r)
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// WHERE chains with every comparison operator, column-vs-constant and
    /// column-vs-column, under an optional LIMIT epilogue.
    #[test]
    fn filtered_scan_differential(
        xs in proptest::collection::vec(0u32..32, 1..40),
        op_i in 0usize..6,
        rhs in 0u64..32,
        col_vs_col in 0usize..2,
        second_filter in 0usize..2,
        with_limit in 0usize..2,
        offset in 0u64..8,
        count in 0u64..16,
        factor in 1usize..4,
    ) {
        let ys: Vec<u32> = xs.iter().map(|v| v.wrapping_mul(3) % 37).collect();
        let catalog = {
            let mut c = Catalog::new();
            // Every column reaches the output: no list column.
            c.register("T", padded(&[("X", xs), ("Y", ys)], false));
            c
        };
        let rhs_expr = if col_vs_col == 1 { col("Y") } else { Expr::Number(rhs) };
        let mut plan = LogicalPlan::Filter {
            input: Box::new(scan("T")),
            pred: bin(CMP_OPS[op_i], col("X"), rhs_expr),
        };
        if second_filter == 1 {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                pred: bin(BinOp::Le, col("Y"), Expr::Number(30)),
            };
        }
        if with_limit == 1 {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                offset: Expr::Number(offset),
                count: Expr::Number(count),
            };
        }
        differential(&plan, &catalog, factor)?;
    }

    /// SELECT lists mixing pass-through columns, arithmetic, and derived
    /// comparisons (the negate/mirror table in the lowering).
    #[test]
    fn projection_differential(
        xs in proptest::collection::vec(0u32..1000, 1..32),
        op_i in 0usize..6,
        threshold in 0u64..1000,
        aliased in 0usize..2,
        factor in 1usize..4,
    ) {
        let ys: Vec<u32> = xs.iter().map(|v| (v * 7 + 13) % 997).collect();
        let catalog = {
            let mut c = Catalog::new();
            c.register("T", padded(&[("X", xs), ("Y", ys)], true));
            c
        };
        let alias = if aliased == 1 { Some("FLAG".to_owned()) } else { None };
        let plan = LogicalPlan::Project {
            input: Box::new(scan("T")),
            items: vec![
                SelectItem::Expr { expr: col("X"), alias: None },
                SelectItem::Expr {
                    expr: bin(BinOp::Add, col("X"), col("Y")),
                    alias: Some("TOTAL".to_owned()),
                },
                SelectItem::Expr {
                    expr: bin(CMP_OPS[op_i], col("Y"), Expr::Number(threshold)),
                    alias,
                },
            ],
        };
        differential(&plan, &catalog, factor)?;
    }

    /// Scalar COUNT/SUM/MIN/MAX at the plan root, over a filtered or
    /// unfiltered scan (empty inputs exercise the Null MIN/MAX path).
    #[test]
    fn scalar_aggregate_differential(
        vs in proptest::collection::vec(0u32..500, 0..40),
        filtered in 0usize..2,
        cutoff in 0u64..500,
        factor in 1usize..5,
    ) {
        let catalog = {
            let mut c = Catalog::new();
            c.register("T", padded(&[("V", vs)], true));
            c
        };
        let input = if filtered == 1 {
            LogicalPlan::Filter {
                input: Box::new(scan("T")),
                pred: bin(BinOp::Lt, col("V"), Expr::Number(cutoff)),
            }
        } else {
            scan("T")
        };
        let plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            items: vec![
                SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
                SelectItem::Agg { func: AggFn::Sum, arg: Some(col("V")), alias: None },
                SelectItem::Agg { func: AggFn::Min, arg: Some(col("V")), alias: None },
                SelectItem::Agg { func: AggFn::Max, arg: Some(col("V")), alias: None },
            ],
            group_by: vec![],
        };
        differential(&plan, &catalog, factor)?;
    }

    /// GROUP BY over a small key domain with COUNT and SUM, drained in key
    /// order (the scratchpad-histogram path), merged across pipelines.
    #[test]
    fn grouped_aggregate_differential(
        ks in proptest::collection::vec(0u32..8, 1..48),
        weight_mul in 1u32..9,
        factor in 1usize..4,
    ) {
        let ws: Vec<u32> = ks.iter().enumerate().map(|(i, k)| k * weight_mul + i as u32 % 5).collect();
        let catalog = {
            let mut c = Catalog::new();
            c.register("T", padded(&[("K", ks), ("W", ws)], true));
            c
        };
        let plan = LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Aggregate {
                input: Box::new(scan("T")),
                items: vec![
                    SelectItem::Expr { expr: col("K"), alias: None },
                    SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
                    SelectItem::Agg { func: AggFn::Sum, arg: Some(col("W")), alias: None },
                ],
                group_by: vec![ColRef::bare("K")],
            }),
            keys: vec![(ColRef::bare("K"), false)],
        };
        differential(&plan, &catalog, factor)?;
    }

    /// INNER and LEFT joins on strictly ascending keys (random membership
    /// masks on each side), with the hardware `Del` padding for unmatched
    /// left rows checked against the software engine.
    #[test]
    fn join_differential(
        left_mask in proptest::collection::vec(0usize..2, 24..25),
        right_mask in proptest::collection::vec(0usize..2, 24..25),
        left_join in 0usize..2,
        lmul in 1u32..7,
        rmul in 1u32..7,
        factor in 1usize..3,
    ) {
        let lk: Vec<u32> = left_mask.iter().enumerate().filter(|(_, &m)| m == 1).map(|(i, _)| i as u32).collect();
        let rk: Vec<u32> = right_mask.iter().enumerate().filter(|(_, &m)| m == 1).map(|(i, _)| i as u32).collect();
        // The spine scan must be non-empty; keep at least one left row.
        let lk = if lk.is_empty() { vec![0] } else { lk };
        let lv: Vec<u32> = lk.iter().map(|k| k * lmul + 1).collect();
        let rv: Vec<u32> = rk.iter().map(|k| k * rmul + 2).collect();
        let catalog = {
            let mut c = Catalog::new();
            // Every column reaches the output: no list column.
            c.register("L", padded(&[("K", lk), ("A", lv)], false));
            c.register("R", padded(&[("K", rk), ("B", rv)], false));
            c
        };
        let kind = if left_join == 1 { JoinKind::Left } else { JoinKind::Inner };
        let plan = LogicalPlan::Join {
            kind,
            left: Box::new(scan("L")),
            right: Box::new(scan("R")),
            left_key: ColRef::qualified("L", "K"),
            right_key: ColRef::qualified("R", "K"),
        };
        differential(&plan, &catalog, factor)?;
    }
}

/// Value bases that park arithmetic GROUP BY keys on either side of the
/// u64 wrap boundary.
const WRAP_BASES: [u64; 3] = [0, u64::MAX / 2, u64::MAX - 64];

/// Comparison literals at the key-domain boundaries.
const BOUNDARY_LITS: [u64; 4] = [0, 1, u64::MAX - 1, u64::MAX];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arithmetic GROUP BY keys whose value ranges straddle wrap-around:
    /// `A ± B` with `A` parked near 0, mid-range, or near `u64::MAX`.
    /// The compiler must either reject the plan as a structured
    /// `Unsupported` (the wrap-possible and over-budget cases) or
    /// produce output bit-identical to the software engine's wrapping
    /// arithmetic under both engines.
    #[test]
    fn arithmetic_group_key_wrap_differential(
        base_i in 0usize..3,
        pairs in proptest::collection::vec((0u64..48, 0u64..48), 1..16),
        is_sub in 0usize..2,
        factor in 1usize..3,
    ) {
        let base = WRAP_BASES[base_i];
        let a: Vec<u64> = pairs.iter().map(|&(x, _)| base + x).collect();
        let b: Vec<u64> = pairs.iter().map(|&(_, y)| y).collect();
        let catalog = {
            let mut c = Catalog::new();
            c.register("T", table_u64(&[("A", a), ("B", b)]));
            c
        };
        let op = if is_sub == 1 { BinOp::Sub } else { BinOp::Add };
        let plan = LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Aggregate {
                input: Box::new(LogicalPlan::Project {
                    input: Box::new(scan("T")),
                    items: vec![SelectItem::Expr {
                        expr: bin(op, col("A"), col("B")),
                        alias: Some("D".to_owned()),
                    }],
                }),
                items: vec![
                    SelectItem::Expr { expr: col("D"), alias: None },
                    SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
                ],
                group_by: vec![ColRef::bare("D")],
            }),
            keys: vec![(ColRef::bare("D"), false)],
        };
        match Compiler::new(DeviceConfig::small()).compile(&plan, &catalog) {
            // Wrap-possible or over-budget keys must be rejected with a
            // structured diagnostic, never compiled into a mis-sized
            // scratchpad.
            Err(CoreError::Unsupported { node, .. }) => {
                prop_assert_eq!(node, "Aggregate(GROUP BY)");
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error class: {e}"))),
            Ok(_) => differential_engines(&plan, &catalog, factor)?,
        }
    }

    /// Predicates against the boundary literals 0 / 1 / `u64::MAX - 1` /
    /// `u64::MAX` under every comparison operator, both pushed into the
    /// scan and lowered as Filter modules, across the engine matrix —
    /// pinning the vacuous-edge narrowing (`X < 0`, `X > u64::MAX`) and
    /// the pushdown/module split to the software engine bit for bit.
    #[test]
    fn boundary_literal_filter_differential(
        xs in proptest::collection::vec(0u32..64, 1..24),
        op_i in 0usize..6,
        lit_i in 0usize..4,
        factor in 1usize..3,
    ) {
        let catalog = {
            let mut c = Catalog::new();
            c.register("T", table_u32(&[("X", xs)]));
            c
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("T")),
            pred: bin(CMP_OPS[op_i], col("X"), Expr::Number(BOUNDARY_LITS[lit_i])),
        };
        differential_engines(&plan, &catalog, factor)?;
    }
}

/// Every rejection must be a structured `Unsupported { node, reason }`
/// naming the offending plan node — not a stringly-typed grab bag.
mod unsupported_diagnostics {
    use super::*;

    fn compile_err(plan: &LogicalPlan, catalog: &Catalog) -> CoreError {
        Compiler::new(DeviceConfig::small()).compile(plan, catalog).unwrap_err()
    }

    fn assert_names_node(err: &CoreError, want_node: &str) {
        match err {
            CoreError::Unsupported { node, reason } => {
                assert_eq!(node, want_node, "wrong node in: {err}");
                assert!(!reason.is_empty(), "empty reason in: {err}");
            }
            other => panic!("expected Unsupported {{ node: {want_node} }}, got: {other}"),
        }
    }

    fn one_col_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register("T", table_u32(&[("X", vec![1, 2, 3])]));
        c
    }

    #[test]
    fn grouped_aggregate_without_order_by() {
        let mut catalog = Catalog::new();
        catalog.register("T", table_u32(&[("X", vec![1, 2, 3]), ("W", vec![4, 5, 6])]));
        for agg in [
            SelectItem::Agg { func: AggFn::Sum, arg: Some(col("W")), alias: None },
            SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
        ] {
            let plan = LogicalPlan::Aggregate {
                input: Box::new(scan("T")),
                items: vec![SelectItem::Expr { expr: col("X"), alias: None }, agg],
                group_by: vec![ColRef::bare("X")],
            };
            let err = compile_err(&plan, &catalog);
            assert_names_node(&err, "Aggregate(GROUP BY)");
            assert!(err.to_string().contains("ORDER BY"), "reason must suggest the fix: {err}");
        }
    }

    #[test]
    fn outer_join() {
        let mut catalog = Catalog::new();
        catalog.register("L", table_u32(&[("K", vec![1, 2])]));
        catalog.register("R", table_u32(&[("K", vec![2, 3])]));
        let plan = LogicalPlan::Join {
            kind: JoinKind::Outer,
            left: Box::new(scan("L")),
            right: Box::new(scan("R")),
            left_key: ColRef::qualified("L", "K"),
            right_key: ColRef::qualified("R", "K"),
        };
        assert_names_node(&compile_err(&plan, &catalog), "Join(Outer)");
    }

    #[test]
    fn sort_below_the_root() {
        let catalog = one_col_catalog();
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(scan("T")),
                keys: vec![(ColRef::bare("X"), false)],
            }),
            pred: bin(BinOp::Gt, col("X"), Expr::Number(1)),
        };
        assert_names_node(&compile_err(&plan, &catalog), "Sort");
    }

    #[test]
    fn non_literal_limit() {
        let catalog = one_col_catalog();
        let plan = LogicalPlan::Limit {
            input: Box::new(scan("T")),
            offset: Expr::Number(0),
            count: col("X"),
        };
        assert_names_node(&compile_err(&plan, &catalog), "Limit");
    }

    #[test]
    fn unknown_scan_table_names_the_scan() {
        let catalog = Catalog::new();
        let plan = scan("MISSING");
        let err = compile_err(&plan, &catalog);
        assert!(
            err.to_string().contains("MISSING"),
            "error must name the missing table: {err}"
        );
    }

    #[test]
    fn aggregate_below_the_root() {
        let catalog = one_col_catalog();
        let inner = LogicalPlan::Aggregate {
            input: Box::new(scan("T")),
            items: vec![SelectItem::Agg { func: AggFn::Sum, arg: Some(col("X")), alias: None }],
            group_by: vec![],
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(inner),
            pred: bin(BinOp::Gt, col("SUM"), Expr::Number(0)),
        };
        assert_names_node(&compile_err(&plan, &catalog), "Aggregate");
    }
}
