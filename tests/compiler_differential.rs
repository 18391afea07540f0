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

mod common;

use common::{agg, aggregate, bin, catalog_of, check, col, filter, grouped, item, join};
use common::{masked_join, project, scalar_aggs, scan, table_of, u32_table, Axes};
use common::{CMP_OPS, ENGINES};
use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::core::CoreError;
use genesis::sql::ast::{AggFn, BinOp, ColRef, Expr, JoinKind, SelectItem};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::{Column, Table};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// `cols` between two columns no plan reads: a leading `U8` and, with
/// `list`, a trailing list column no Memory Reader can stream.
fn padded(cols: &[(&str, Vec<u32>)], list: bool) -> Table {
    let rows = cols.first().map_or(0, |(_, v)| v.len());
    let mut all = vec![("PAD", Column::U8((0..rows).map(|r| (r % 7) as u8).collect()))];
    all.extend(cols.iter().map(|(name, vals)| (*name, Column::U32(vals.clone()))));
    if list {
        all.push(("TAGS", Column::ListU8((0..rows).map(|r| vec![r as u8; r % 3]).collect())));
    }
    table_of(all)
}

/// The compiled plan at `factor`, pushdown on and off, equals the
/// software engine.
fn differential(plan: &LogicalPlan, catalog: &Catalog, factor: usize) -> Result<(), TestCaseError> {
    check(plan, catalog, &Axes::at(factor).pushdown(&[true, false])).map(drop)
}

/// [`differential`] swept over both engines, so the absorbed-at-the-scan
/// and Filter-module paths are pinned against each other bit for bit on
/// each.
fn differential_engines(
    plan: &LogicalPlan,
    catalog: &Catalog,
    factor: usize,
) -> Result<(), TestCaseError> {
    check(plan, catalog, &Axes::at(factor).pushdown(&[true, false]).engines(&ENGINES)).map(drop)
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
        // Every column reaches the output: no list column.
        let catalog = catalog_of(vec![("T", padded(&[("X", xs), ("Y", ys)], false))]);
        let rhs_expr = if col_vs_col == 1 { col("Y") } else { Expr::Number(rhs) };
        let mut plan = filter(scan("T"), bin(CMP_OPS[op_i], col("X"), rhs_expr));
        if second_filter == 1 {
            plan = filter(plan, bin(BinOp::Le, col("Y"), Expr::Number(30)));
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
        let catalog = catalog_of(vec![("T", padded(&[("X", xs), ("Y", ys)], true))]);
        let alias = if aliased == 1 { Some("FLAG".to_owned()) } else { None };
        let plan = project(scan("T"), vec![
            item("X"),
            SelectItem::Expr {
                expr: bin(BinOp::Add, col("X"), col("Y")),
                alias: Some("TOTAL".to_owned()),
            },
            SelectItem::Expr { expr: bin(CMP_OPS[op_i], col("Y"), Expr::Number(threshold)), alias },
        ]);
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
        let catalog = catalog_of(vec![("T", padded(&[("V", vs)], true))]);
        let input = if filtered == 1 {
            filter(scan("T"), bin(BinOp::Lt, col("V"), Expr::Number(cutoff)))
        } else {
            scan("T")
        };
        let plan = aggregate(input, scalar_aggs("V"));
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
        let catalog = catalog_of(vec![("T", padded(&[("K", ks), ("W", ws)], true))]);
        differential(&grouped(scan("T"), "K", &["W"]), &catalog, factor)?;
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
        let (plan, [left, right]) =
            masked_join(&left_mask, &right_mask, left_join == 1, lmul, rmul);
        // Every column reaches the output: no list column.
        let catalog = catalog_of(vec![("L", padded(&left, false)), ("R", padded(&right, false))]);
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
        let table = table_of(vec![("A", Column::U64(a)), ("B", Column::U64(b))]);
        let catalog = catalog_of(vec![("T", table)]);
        let op = if is_sub == 1 { BinOp::Sub } else { BinOp::Add };
        let d = SelectItem::Expr { expr: bin(op, col("A"), col("B")), alias: Some("D".to_owned()) };
        let plan = grouped(project(scan("T"), vec![d]), "D", &[]);
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
        let catalog = catalog_of(vec![("T", u32_table(vec![("X", xs)]))]);
        let literal = Expr::Number(BOUNDARY_LITS[lit_i]);
        let plan = filter(scan("T"), bin(CMP_OPS[op_i], col("X"), literal));
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
        catalog_of(vec![("T", u32_table(vec![("X", vec![1, 2, 3])]))])
    }

    #[test]
    fn grouped_aggregate_without_order_by() {
        let catalog =
            catalog_of(vec![("T", u32_table(vec![("X", vec![1, 2, 3]), ("W", vec![4, 5, 6])]))]);
        for agg in [agg(AggFn::Sum, Some("W")), agg(AggFn::Count, None)] {
            let plan = LogicalPlan::Aggregate {
                input: Box::new(scan("T")),
                items: vec![item("X"), agg],
                group_by: vec![ColRef::bare("X")],
            };
            let err = compile_err(&plan, &catalog);
            assert_names_node(&err, "Aggregate(GROUP BY)");
            assert!(err.to_string().contains("ORDER BY"), "reason must suggest the fix: {err}");
        }
    }

    #[test]
    fn outer_join() {
        let catalog = catalog_of(vec![
            ("L", u32_table(vec![("K", vec![1, 2])])),
            ("R", u32_table(vec![("K", vec![2, 3])])),
        ]);
        let plan = join(JoinKind::Outer, scan("L"), scan("R"), ("L.K", "R.K"));
        assert_names_node(&compile_err(&plan, &catalog), "Join(Outer)");
    }

    #[test]
    fn sort_below_the_root() {
        let catalog = one_col_catalog();
        let sorted =
            LogicalPlan::Sort { input: Box::new(scan("T")), keys: vec![(ColRef::bare("X"), false)] };
        let plan = filter(sorted, bin(BinOp::Gt, col("X"), Expr::Number(1)));
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
        let inner = aggregate(scan("T"), vec![agg(AggFn::Sum, Some("X"))]);
        let plan = filter(inner, bin(BinOp::Gt, col("SUM"), Expr::Number(0)));
        assert_names_node(&compile_err(&plan, &catalog), "Aggregate");
    }
}
