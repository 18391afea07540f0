use super::*;
use super::bind::list_len;
use genesis_hw::word::MAX_FIELDS;
use genesis_sql::ast::{AggFn, JoinKind, SelectItem};
use genesis_sql::exec::{execute_plan, Env};
use genesis_types::{DataType, Field, Schema, Table, Value};
use genesis_types::Column;
use std::collections::BTreeMap;

fn table_u32(name: &str, cols: &[(&str, Vec<u32>)]) -> (String, Table) {
    let schema =
        Schema::new(cols.iter().map(|(n, _)| Field::new(n, DataType::U32)).collect());
    let columns = cols.iter().map(|(_, v)| Column::U32(v.clone())).collect();
    (name.to_owned(), Table::from_columns(schema, columns).unwrap())
}

fn catalog_with(tables: Vec<(String, Table)>) -> Catalog {
    let mut c = Catalog::new();
    for (n, t) in tables {
        c.register(&n, t);
    }
    c
}

fn run(plan: &LogicalPlan, catalog: &Catalog, factor: usize) -> Table {
    let cfg = DeviceConfig::small();
    let low = analyze(plan, catalog, &cfg).unwrap();
    low.prepare(&cfg, catalog, None, Some(factor)).and_then(PreparedJob::run).unwrap().0
}

fn software(plan: &LogicalPlan, catalog: &Catalog) -> Table {
    execute_plan(plan, catalog, &Env::default()).unwrap()
}

fn assert_tables_match(hw: &Table, sw: &Table) {
    let hw_names: Vec<&str> =
        hw.schema().fields().iter().map(|f| f.name.as_str()).collect();
    let sw_names: Vec<&str> =
        sw.schema().fields().iter().map(|f| f.name.as_str()).collect();
    assert_eq!(hw_names, sw_names, "schema names differ");
    assert_eq!(hw.num_rows(), sw.num_rows(), "row count differs");
    for r in 0..hw.num_rows() {
        assert_eq!(hw.row(r), sw.row(r), "row {r} differs");
    }
}

fn scan(t: &str) -> LogicalPlan {
    LogicalPlan::Scan { table: t.to_owned(), partition: None }
}

#[test]
fn filtered_scan_matches_software() {
    let catalog = catalog_with(vec![table_u32(
        "T",
        &[("X", (0..40).collect()), ("Y", (0..40).map(|v| v * 3).collect())],
    )]);
    let plan = LogicalPlan::Filter {
        input: Box::new(scan("T")),
        pred: Expr::Bin {
            op: BinOp::Gt,
            lhs: Box::new(Expr::Col(ColRef::bare("Y"))),
            rhs: Box::new(Expr::Number(30)),
        },
    };
    assert_tables_match(&run(&plan, &catalog, 2), &software(&plan, &catalog));
}

#[test]
fn computed_projection_matches_software() {
    let catalog = catalog_with(vec![table_u32(
        "T",
        &[("A", (0..25).collect()), ("B", (0..25).map(|v| v * 2 % 17).collect())],
    )]);
    let plan = LogicalPlan::Project {
        input: Box::new(scan("T")),
        items: vec![
            SelectItem::Expr {
                expr: Expr::Bin {
                    op: BinOp::Add,
                    lhs: Box::new(Expr::Col(ColRef::bare("A"))),
                    rhs: Box::new(Expr::Col(ColRef::bare("B"))),
                },
                alias: Some("S".into()),
            },
            SelectItem::Expr { expr: Expr::Col(ColRef::bare("A")), alias: None },
            SelectItem::Expr {
                expr: Expr::Bin {
                    op: BinOp::Le,
                    lhs: Box::new(Expr::Col(ColRef::bare("B"))),
                    rhs: Box::new(Expr::Number(9)),
                },
                alias: None,
            },
        ],
    };
    assert_tables_match(&run(&plan, &catalog, 2), &software(&plan, &catalog));
}

#[test]
fn join_and_grouped_count_match_software() {
    let catalog = catalog_with(vec![
        table_u32("L", &[("K", (0..30).collect()), ("G", (0..30).map(|v| v % 5).collect())]),
        table_u32("R", &[("K", (0..30).step_by(2).collect()), ("W", (0..15).collect())]),
    ]);
    let join = LogicalPlan::Join {
        kind: JoinKind::Inner,
        left: Box::new(scan("L")),
        right: Box::new(scan("R")),
        left_key: ColRef::qualified("L", "K"),
        right_key: ColRef::qualified("R", "K"),
    };
    let plan = LogicalPlan::Sort {
        input: Box::new(LogicalPlan::Aggregate {
            input: Box::new(join),
            items: vec![
                SelectItem::Expr { expr: Expr::Col(ColRef::bare("G")), alias: None },
                SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
                SelectItem::Agg {
                    func: AggFn::Sum,
                    arg: Some(Expr::Col(ColRef::bare("W"))),
                    alias: Some("TW".into()),
                },
            ],
            group_by: vec![ColRef::bare("G")],
        }),
        keys: vec![(ColRef::bare("G"), false)],
    };
    assert_tables_match(&run(&plan, &catalog, 3), &software(&plan, &catalog));
}

#[test]
fn scalar_aggregates_match_software() {
    let catalog =
        catalog_with(vec![table_u32("T", &[("V", (5..45).map(|v| v * 7 % 31).collect())])]);
    let plan = LogicalPlan::Aggregate {
        input: Box::new(scan("T")),
        items: vec![
            SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
            SelectItem::Agg {
                func: AggFn::Sum,
                arg: Some(Expr::Col(ColRef::bare("V"))),
                alias: None,
            },
            SelectItem::Agg {
                func: AggFn::Min,
                arg: Some(Expr::Col(ColRef::bare("V"))),
                alias: None,
            },
            SelectItem::Agg {
                func: AggFn::Max,
                arg: Some(Expr::Col(ColRef::bare("V"))),
                alias: None,
            },
        ],
        group_by: vec![],
    };
    assert_tables_match(&run(&plan, &catalog, 4), &software(&plan, &catalog));
}

fn table_u64(name: &str, cols: &[(&str, Vec<u64>)]) -> (String, Table) {
    let schema =
        Schema::new(cols.iter().map(|(n, _)| Field::new(n, DataType::U64)).collect());
    let columns = cols.iter().map(|(_, v)| Column::U64(v.clone())).collect();
    (name.to_owned(), Table::from_columns(schema, columns).unwrap())
}

/// `Sort(Aggregate(Project(Scan)))`: COUNT grouped by the computed
/// key `lhs op rhs`, the shape whose scratchpad domain the
/// [`comp_bounds`] wrap proofs size.
fn grouped_by_comp(op: BinOp, lhs: &str, rhs: &str) -> LogicalPlan {
    let agg = LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::Project {
            input: Box::new(scan("T")),
            items: vec![SelectItem::Expr {
                expr: Expr::Bin {
                    op,
                    lhs: Box::new(Expr::Col(ColRef::bare(lhs))),
                    rhs: Box::new(Expr::Col(ColRef::bare(rhs))),
                },
                alias: Some("D".into()),
            }],
        }),
        items: vec![
            SelectItem::Expr { expr: Expr::Col(ColRef::bare("D")), alias: None },
            SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
        ],
        group_by: vec![ColRef::bare("D")],
    };
    LogicalPlan::Sort { input: Box::new(agg), keys: vec![(ColRef::bare("D"), false)] }
}

#[test]
fn sub_key_that_can_wrap_is_rejected() {
    // Row 1 has MPOS < POS: the engine's `wrapping_sub` produces a
    // ~2^64 key, so no dense scratchpad domain is derivable. The
    // pre-fix `comp_max` bounded the key by the minuend's max alone
    // and compiled a histogram the wrapped key escapes.
    let catalog = catalog_with(vec![table_u32(
        "T",
        &[("POS", vec![10, 50]), ("MPOS", vec![30, 20])],
    )]);
    let err =
        analyze(&grouped_by_comp(BinOp::Sub, "MPOS", "POS"), &catalog, &DeviceConfig::small())
            .unwrap_err();
    let CoreError::Unsupported { node, reason } = err else { panic!("{err}") };
    assert_eq!(node, "Aggregate(GROUP BY)");
    assert!(reason.contains("no derivable domain bound"), "got: {reason}");
}

#[test]
fn sub_key_proven_per_row_compiles_despite_overlapping_ranges() {
    // Every row has MPOS >= POS, but the column *ranges* overlap
    // (min MPOS = 30 < max POS = 90): a range-only proof would
    // reject this valid mate-distance shape. The same-scan per-row
    // proof accepts it with the exact [5, 20] key domain.
    let catalog = catalog_with(vec![table_u32(
        "T",
        &[("POS", vec![10, 50, 90]), ("MPOS", vec![30, 55, 100])],
    )]);
    let plan = grouped_by_comp(BinOp::Sub, "MPOS", "POS");
    assert_tables_match(&run(&plan, &catalog, 2), &software(&plan, &catalog));
}

#[test]
fn add_key_that_can_overflow_is_rejected() {
    // max(A) + max(B) overflows u64: the engine wraps
    // (`wrapping_add`), so the pre-fix saturated bound of u64::MAX
    // both lied about the domain and pushed the `max_key + 1`
    // arithmetic in the grouped lowering over the edge.
    let catalog = catalog_with(vec![table_u64(
        "T",
        &[("A", vec![u64::MAX - 10, 5]), ("B", vec![20, 3])],
    )]);
    let err =
        analyze(&grouped_by_comp(BinOp::Add, "A", "B"), &catalog, &DeviceConfig::small())
            .unwrap_err();
    let CoreError::Unsupported { node, reason } = err else { panic!("{err}") };
    assert_eq!(node, "Aggregate(GROUP BY)");
    assert!(reason.contains("no derivable domain bound"), "got: {reason}");
}

#[test]
fn group_key_holding_u64_max_is_a_clean_unsupported() {
    // A key column containing u64::MAX exceeds any scratchpad budget;
    // the rejection must format the domain size without computing
    // `max_key + 1` (debug overflow pre-fix).
    let catalog = catalog_with(vec![table_u64("T", &[("K", vec![0, u64::MAX])])]);
    let agg = LogicalPlan::Aggregate {
        input: Box::new(scan("T")),
        items: vec![
            SelectItem::Expr { expr: Expr::Col(ColRef::bare("K")), alias: None },
            SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
        ],
        group_by: vec![ColRef::bare("K")],
    };
    let plan =
        LogicalPlan::Sort { input: Box::new(agg), keys: vec![(ColRef::bare("K"), false)] };
    let err = analyze(&plan, &catalog, &DeviceConfig::small()).unwrap_err();
    let CoreError::Unsupported { node, reason } = err else { panic!("{err}") };
    assert_eq!(node, "Aggregate(GROUP BY)");
    assert!(reason.contains("scratchpad budget"), "got: {reason}");
}

fn filter_lt(input: LogicalPlan, col: &str, lit: u64) -> LogicalPlan {
    LogicalPlan::Filter {
        input: Box::new(input),
        pred: Expr::Bin {
            op: BinOp::Lt,
            lhs: Box::new(Expr::Col(ColRef::bare(col))),
            rhs: Box::new(Expr::Number(lit)),
        },
    }
}

#[test]
fn pushdown_drops_rows_at_the_scan() {
    let catalog = catalog_with(vec![table_u32(
        "T",
        &[("X", (0..100).collect()), ("Y", (0..100).map(|v| v * 7 % 101).collect())],
    )]);
    let plan = filter_lt(scan("T"), "X", 10);
    let cfg = DeviceConfig::small();
    let low = analyze(&plan, &catalog, &cfg).unwrap();
    assert_eq!(low.pushed.len(), 1, "the conjunct must be absorbed into the scan");
    assert!((low.profile.selectivity - 0.1).abs() < 1e-9);
    assert!(
        low.summary.iter().any(|s| s.contains("Pushdown(Scan(T))")),
        "explain must note the pushed conjunct: {:?}",
        low.summary
    );
    let (hw, stats) =
        low.prepare(&cfg, &catalog, None, Some(2)).and_then(PreparedJob::run).unwrap();
    assert_eq!(stats.rows_scanned, 100);
    assert_eq!(stats.rows_emitted, 10);
    assert_tables_match(&hw, &software(&plan, &catalog));

    // Pushdown off: same bytes out, full table scanned and emitted.
    let cfg_off = DeviceConfig::small().with_pushdown(false);
    let low_off = analyze(&plan, &catalog, &cfg_off).unwrap();
    assert!(low_off.pushed.is_empty());
    assert!((low_off.profile.selectivity - 1.0).abs() < 1e-9);
    let (hw_off, stats_off) =
        low_off.prepare(&cfg_off, &catalog, None, Some(2)).and_then(PreparedJob::run).unwrap();
    assert_eq!(stats_off.rows_scanned, 100);
    assert_eq!(stats_off.rows_emitted, 100);
    assert_tables_match(&hw, &hw_off);
}

#[test]
fn pushdown_that_drops_every_row_yields_empty_output() {
    let catalog = catalog_with(vec![table_u32("T", &[("X", (0..50).collect())])]);
    let plan = filter_lt(scan("T"), "X", 0); // vacuously false
    let cfg = DeviceConfig::small();
    let low = analyze(&plan, &catalog, &cfg).unwrap();
    let (hw, stats) =
        low.prepare(&cfg, &catalog, None, Some(1)).and_then(PreparedJob::run).unwrap();
    assert_eq!(stats.rows_scanned, 50);
    assert_eq!(stats.rows_emitted, 0);
    assert_tables_match(&hw, &software(&plan, &catalog));
}

#[test]
fn filter_above_projection_is_not_pushed() {
    // Only a Filter *directly* above a plain Scan is absorbed; this
    // one sits above a Project and must stay a Filter module.
    let catalog = catalog_with(vec![table_u32("T", &[("X", (0..40).collect())])]);
    let projected = LogicalPlan::Project {
        input: Box::new(scan("T")),
        items: vec![SelectItem::Expr { expr: Expr::Col(ColRef::bare("X")), alias: None }],
    };
    let plan = filter_lt(projected, "X", 8);
    let cfg = DeviceConfig::small();
    let low = analyze(&plan, &catalog, &cfg).unwrap();
    assert!(low.pushed.is_empty());
    let (hw, stats) =
        low.prepare(&cfg, &catalog, None, Some(2)).and_then(PreparedJob::run).unwrap();
    assert_eq!(stats.rows_scanned, stats.rows_emitted);
    assert_tables_match(&hw, &software(&plan, &catalog));
}

#[test]
fn shards_split_survivors_and_attribute_scanned_rows_exactly() {
    // A skewed predicate keeps only the tail 20 of 100 rows: shard
    // ranges must split the 20 *survivors* evenly, and the per-shard
    // scanned-row attribution must sum to the full 100.
    let catalog = catalog_with(vec![table_u32("T", &[("X", (0..100).collect())])]);
    let plan = LogicalPlan::Filter {
        input: Box::new(scan("T")),
        pred: Expr::Bin {
            op: BinOp::Ge,
            lhs: Box::new(Expr::Col(ColRef::bare("X"))),
            rhs: Box::new(Expr::Number(80)),
        },
    };
    let cfg = DeviceConfig::small();
    let low = analyze(&plan, &catalog, &cfg).unwrap();
    let job = low.prepare(&cfg, &catalog, None, Some(1)).unwrap();
    let ranges = job.shard_ranges(4);
    assert_eq!(ranges.len(), 4);
    assert!(ranges.iter().all(|r| r.len() == 5), "survivor split skewed: {ranges:?}");
    let spine = &job.prepared[0];
    let scanned: usize = ranges.iter().map(|r| spine.scanned_rows(r)).sum();
    assert_eq!(scanned, 100);
}

#[test]
fn unsupported_diagnostics_name_the_node() {
    let catalog = catalog_with(vec![table_u32("T", &[("X", vec![1, 2, 3])])]);
    let cfg = DeviceConfig::small();
    let plan = LogicalPlan::Aggregate {
        input: Box::new(scan("T")),
        items: vec![
            SelectItem::Expr { expr: Expr::Col(ColRef::bare("X")), alias: None },
            SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
        ],
        group_by: vec![ColRef::bare("X")],
    };
    // Grouped aggregate without ORDER BY on the key: order undefined.
    let err = analyze(&plan, &catalog, &cfg).unwrap_err();
    let CoreError::Unsupported { node, reason } = err else { panic!("{err}") };
    assert_eq!(node, "Aggregate(GROUP BY)");
    assert!(reason.contains("ORDER BY"));
}

#[test]
fn unknown_column_is_a_plan_error_with_suggestion() {
    let catalog = catalog_with(vec![table_u32("T", &[("QUAL", vec![1, 2, 3])])]);
    let plan = LogicalPlan::Project {
        input: Box::new(scan("T")),
        items: vec![SelectItem::Expr {
            expr: Expr::Col(ColRef::bare("QAUL")),
            alias: None,
        }],
    };
    // A typo'd column is the *user's* plan being wrong, not a lowering
    // gap: it must classify as Plan (was: Unsupported) and point at
    // the close name.
    let err = analyze(&plan, &catalog, &DeviceConfig::small()).unwrap_err();
    let CoreError::Plan { node, reason } = err else { panic!("{err}") };
    assert_eq!(node, "Project");
    assert!(reason.contains("unknown column QAUL"), "got: {reason}");
    assert!(reason.contains("did you mean `QUAL`"), "got: {reason}");
}

#[test]
fn ambiguous_column_is_a_plan_error_listing_matches() {
    let catalog = catalog_with(vec![
        table_u32("T", &[("K", vec![1, 2]), ("X", vec![10, 20])]),
        table_u32("U", &[("K", vec![1, 2]), ("X", vec![30, 40])]),
    ]);
    // After the join both sides expose an `X`; a bare reference must
    // name the candidates rather than claim the shape is unsupported.
    let plan = LogicalPlan::Project {
        input: Box::new(LogicalPlan::Join {
            kind: JoinKind::Inner,
            left: Box::new(scan("T")),
            right: Box::new(scan("U")),
            left_key: ColRef::qualified("T", "K"),
            right_key: ColRef::qualified("U", "K"),
        }),
        items: vec![SelectItem::Expr {
            expr: Expr::Col(ColRef::bare("X")),
            alias: None,
        }],
    };
    let err = analyze(&plan, &catalog, &DeviceConfig::small()).unwrap_err();
    let CoreError::Plan { reason, .. } = err else { panic!("{err}") };
    assert!(reason.contains("ambiguous column X"), "got: {reason}");
    assert!(reason.contains("T.X") && reason.contains("U.X"), "got: {reason}");
    assert!(reason.contains("qualify"), "got: {reason}");
}

#[test]
fn unknown_table_is_a_plan_error_with_suggestion() {
    let catalog = catalog_with(vec![table_u32("READS", &[("X", vec![1])])]);
    let plan = LogicalPlan::Project {
        input: Box::new(scan("REDAS")),
        items: vec![SelectItem::Expr {
            expr: Expr::Col(ColRef::bare("X")),
            alias: None,
        }],
    };
    let cfg = DeviceConfig::small();
    let low = analyze(&plan, &catalog, &cfg);
    // Scan columns come from the catalog at analysis time, so the typo
    // surfaces there or at execute depending on the path — either way
    // it must be a Plan error suggesting the close table name.
    let err = match low {
        Err(e) => e,
        Ok(low) => {
            low.prepare(&cfg, &catalog, None, Some(1)).and_then(PreparedJob::run).unwrap_err()
        }
    };
    let CoreError::Plan { node, reason } = err else { panic!("{err}") };
    assert_eq!(node, "Scan(REDAS)");
    assert!(reason.contains("unknown table"), "got: {reason}");
    assert!(reason.contains("did you mean `READS`"), "got: {reason}");
}

// ---- bind-path diagnostics, pinned byte for byte ----

fn table_of(cols: Vec<(&str, Column)>) -> Table {
    let schema =
        Schema::new(cols.iter().map(|(n, c)| Field::new(n, c.dtype())).collect());
    Table::from_columns(schema, cols.into_iter().map(|(_, c)| c).collect()).unwrap()
}

fn catalog_of(name: &str, cols: Vec<(&str, Column)>) -> Catalog {
    catalog_with(vec![(name.to_owned(), table_of(cols))])
}

/// The `(node, reason)` of the `Unsupported` that analyzing `plan`
/// against `catalog` yields.
fn unsupported(plan: &LogicalPlan, catalog: &Catalog) -> (String, String) {
    match analyze(plan, catalog, &DeviceConfig::small()).unwrap_err() {
        CoreError::Unsupported { node, reason } => (node, reason),
        other => panic!("expected Unsupported, got {other}"),
    }
}

fn pair(node: &str, reason: &str) -> (String, String) {
    (node.to_owned(), reason.to_owned())
}

#[test]
fn scan_wider_than_a_flit_is_rejected() {
    let cols: Vec<(String, Column)> =
        (0..=MAX_FIELDS).map(|i| (format!("C{i}"), Column::U8(vec![1]))).collect();
    let catalog =
        catalog_of("T", cols.iter().map(|(n, c)| (n.as_str(), c.clone())).collect());
    assert_eq!(
        unsupported(&scan("T"), &catalog),
        pair("Scan(T)", "9 columns exceed the 8-field flit width")
    );
}

#[test]
fn string_and_list_columns_do_not_stream_under_a_plain_scan() {
    let catalog = catalog_of("T", vec![("NAME", Column::Str(vec!["r1".into()]))]);
    assert_eq!(
        unsupported(&scan("T"), &catalog),
        pair(
            "Scan(T)",
            "column NAME has type Str; only fixed-width numeric/boolean \
             columns stream through Memory Readers"
        )
    );
    let catalog = catalog_of(
        "T",
        vec![("X", Column::U8(vec![1])), ("SEQ", Column::ListU8(vec![vec![0, 1]]))],
    );
    assert_eq!(
        unsupported(&scan("T"), &catalog),
        pair(
            "Scan(T)",
            "column SEQ has type ListU8; only fixed-width numeric/boolean \
             columns stream through Memory Readers"
        )
    );
}

#[test]
fn cell_columns_must_be_uniformly_numeric_or_boolean() {
    let reason = "dynamically-typed column C holds non-uniform or non-numeric cells";
    for cells in [
        vec![Value::U64(1), Value::Bool(true)],
        vec![Value::U64(1), Value::Null],
        vec![Value::Ins],
        vec![Value::List(vec![Value::U64(1)])],
    ] {
        let catalog = catalog_of("T", vec![("C", Column::Cell(cells))]);
        assert_eq!(unsupported(&scan("T"), &catalog), pair("Scan(T)", reason));
    }
    // Uniform cells scan like their typed counterparts.
    for cells in [
        vec![Value::U64(7), Value::U64(u64::MAX)],
        vec![Value::Bool(true), Value::Bool(false)],
        vec![],
    ] {
        let catalog = catalog_of("T", vec![("C", Column::Cell(cells))]);
        let plan = scan("T");
        assert_tables_match(&run(&plan, &catalog, 2), &software(&plan, &catalog));
    }
}

fn pos_explode(array: &str, init_pos: Expr) -> LogicalPlan {
    LogicalPlan::PosExplode {
        input: Box::new(scan("T")),
        array: ColRef::bare(array),
        init_pos,
    }
}

#[test]
fn explode_rejects_rows_that_are_not_lists_of_numbers() {
    let lists = |cells: Vec<Value>| catalog_of("T", vec![("A", Column::Cell(cells))]);
    let plan = pos_explode("A", Expr::Number(0));
    assert_eq!(
        unsupported(
            &plan,
            &lists(vec![Value::List(vec![Value::U64(1)]), Value::U64(3)])
        ),
        pair("PosExplode", "column A row 1 holds U64(3), not a list")
    );
    assert_eq!(
        unsupported(
            &plan,
            &lists(vec![Value::List(vec![Value::U64(1), Value::Bool(true)])])
        ),
        pair("PosExplode", "column A row 0 item 1 holds Bool(true), not a number")
    );
    assert_eq!(
        unsupported(&plan, &catalog_of("T", vec![("A", Column::U32(vec![4]))])),
        pair("PosExplode", "column A has type U32, not a per-row list")
    );
    // A packed CIGAR element is 16 bits: a wider one is rejected, never
    // read as the element its low 16 bits spell (`4M` here).
    let plan = LogicalPlan::ReadExplode {
        input: Box::new(scan("T")),
        pos: Expr::Col(ColRef::bare("POS")),
        cigar: ColRef::bare("CIGAR"),
        seq: ColRef::bare("SEQ"),
        qual: None,
    };
    let wide = Column::Cell(vec![Value::List(vec![Value::U64((1 << 20) | 4)])]);
    let reads = vec![
        ("POS", Column::U32(vec![7])),
        ("CIGAR", wide),
        ("SEQ", Column::ListU8(vec![vec![0, 1, 2, 3]])),
    ];
    assert_eq!(
        unsupported(&plan, &catalog_of("T", reads)),
        pair("ReadExplode", "CIGAR element 0x100004 is wider than 16 bits")
    );
}

#[test]
fn explode_position_column_must_be_numeric() {
    let plan = pos_explode("A", Expr::Col(ColRef::bare("P")));
    let array = || Column::ListU8(vec![vec![1], vec![2], vec![3]]);
    let cells = Column::Cell(vec![Value::U64(1), Value::U64(2), Value::Null]);
    assert_eq!(
        unsupported(&plan, &catalog_of("T", vec![("A", array()), ("P", cells)])),
        pair("PosExplode", "position column P row 2 is not numeric")
    );
    let flags = Column::Bool(vec![true, false, true]);
    assert_eq!(
        unsupported(&plan, &catalog_of("T", vec![("A", array()), ("P", flags)])),
        pair("PosExplode", "position column P row 0 is not numeric")
    );
}

#[test]
fn over_long_list_is_rejected_by_row() {
    // A list that long cannot be built in a test; the length check
    // every list row passes through is pinned directly.
    assert_eq!(list_len(7, "SEQ", 0, "ReadExplode").unwrap(), 7);
    let err = list_len(u32::MAX as usize + 1, "SEQ", 3, "ReadExplode").unwrap_err();
    let CoreError::Unsupported { node, reason } = err else { panic!("{err}") };
    assert_eq!((node.as_str(), reason.as_str()), ("ReadExplode", "column SEQ row 3 list is too long"));
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
fn count_star_streams_the_first_narrowest_column() {
    let catalog = catalog_of(
        "T",
        vec![
            ("X", Column::U32(vec![1, 2, 3])),
            ("SEQ", Column::ListU8(vec![vec![1], vec![], vec![2, 3]])),
            ("F", Column::Bool(vec![true, false, true])),
            ("G", Column::U8(vec![4, 5, 6])),
        ],
    );
    let plan = LogicalPlan::Aggregate {
        input: Box::new(scan("T")),
        items: vec![SelectItem::Agg { func: AggFn::Count, arg: None, alias: None }],
        group_by: vec![],
    };
    let cfg = DeviceConfig::small();
    let low = analyze(&plan, &catalog, &cfg).unwrap();
    assert!(low.summary.iter().any(|l| l == "Scan(T) -> 1x MemoryReader (1 of 4 columns)"));
    let job = low.prepare(&cfg, &catalog, None, Some(1)).unwrap();
    let names: Vec<&str> = job.prepared[0].cols.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["F"]);
    assert_tables_match(&job.run().unwrap().0, &software(&plan, &catalog));
}

#[test]
fn pushed_conjunct_that_no_longer_resolves_is_a_host_error() {
    let plan = filter_lt(scan("T"), "X", 10);
    let cfg = DeviceConfig::small();
    let low = analyze(&plan, &catalog_of("T", vec![("X", Column::U32(vec![1, 20]))]), &cfg)
        .unwrap();
    assert_eq!(low.pushed.len(), 1);
    // The same table now holds booleans under that name: `X < 10` is
    // no comparison the scan can evaluate.
    let rebound = catalog_of("T", vec![("X", Column::Bool(vec![true, false]))]);
    let err = low.prepare(&cfg, &rebound, None, Some(1)).unwrap_err();
    assert_eq!(
        err.to_string(),
        "host api error: pushed conjunct no longer resolves against the scan"
    );
}

/// A catalog every `scripts/*.sql` plan binds to: reads, pairs and one
/// reference row, the reads and the reference also as their partition 0.
fn scripts_catalog() -> Catalog {
    let cigars: Vec<genesis_types::Cigar> =
        ["5M", "1S3M1I1M", "2M2D3M", "3M1N2M"].iter().map(|c| c.parse().unwrap()).collect();
    let n = 12u32;
    let pos: Vec<u32> = (0..n).map(|i| 1 + 3 * i).collect();
    let cigar = |i: u32| &cigars[i as usize % cigars.len()];
    let endpos = (0..n).map(|i| pos[i as usize] + cigar(i).ref_len()).collect();
    let seq = (0..n).map(|i| (0..cigar(i).read_len()).map(|j| ((i + j) % 4) as u8).collect());
    let reads = table_of(vec![
        ("POS", Column::U32(pos.clone())),
        ("ENDPOS", Column::U32(endpos)),
        ("CIGAR", Column::ListU16((0..n).map(|i| cigar(i).pack().unwrap()).collect())),
        ("SEQ", Column::ListU8(seq.collect())),
    ]);
    let reference = table_of(vec![
        ("POS", Column::U32(vec![0])),
        ("REFPOS", Column::U32(vec![0])),
        ("SEQ", Column::ListU8(vec![(0..64).map(|j| (j % 4) as u8).collect()])),
    ]);
    let mpos = pos.iter().enumerate().map(|(i, &p)| p + 40 + i as u32 % 16).collect();
    let mut cat = catalog_of("PAIRS", vec![("POS", Column::U32(pos)), ("MPOS", Column::U32(mpos))]);
    for (name, table) in [("READS", reads), ("REF", reference)] {
        cat.register(name, table.clone());
        cat.register_partition(name, 0, table);
    }
    cat
}

/// Adds the modules an explain line names to `counts`, by kind: `2x Zip`
/// counts two, `Zip` one, and `rename` and `ReadToBases guard` (a Filter
/// folded into its explode) none; a trailing ` (…)` note names no module.
fn explained_modules(line: &str, counts: &mut BTreeMap<String, usize>) {
    let (_, modules) = line.split_once(" -> ").unwrap_or_else(|| panic!("no ` -> ` in {line}"));
    let modules = modules.split(" (").next().unwrap_or_default();
    for term in modules.split(" + ").filter(|t| !matches!(*t, "rename" | "ReadToBases guard")) {
        let (k, name) = match term.split_once("x ").map(|(k, name)| (k.parse(), name)) {
            Some((Ok(k), name)) => (k, name),
            _ => (1, term),
        };
        let kind = name.split('(').next().unwrap_or_default();
        *counts.entry(if kind == "ALU" { "Alu".into() } else { kind.to_owned() }).or_default() += k;
    }
}

/// The explain lines are the node → module map: for every script, with
/// pushdown on and off, a compiled plan's explain is the lowering's lines,
/// one `-> host` line per host epilogue and the replication line, and the
/// modules the lowering's lines name are exactly the modules the
/// analysis build added, per kind and with multiplicity (a multi-column
/// scan's `MemoryReader (2 columns)` is one module). And a column names a
/// field: no build selects or reorders one row's fields with a one-input
/// Zip, except a loop body's explode, which keeps its per-read items and
/// selects them. And a scan row is one read: no Zip reassembles rows from
/// Memory Readers alone. And a Filter over an explode is its guard: no
/// Filter module reads a ReadToBases.
#[test]
fn explain_lines_name_every_module_the_build_adds() {
    let catalog = scripts_catalog();
    let registry = crate::library::ModuleRegistry::with_builtins();
    let mut epilogues = 0;
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts");
    let mut scripts: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "sql"))
        .collect();
    scripts.sort();
    assert!(scripts.len() >= 7, "{scripts:?}");
    for path in scripts {
        let src = std::fs::read_to_string(&path).unwrap();
        let plan = crate::compile::script_to_plan(&src, &registry).unwrap();
        for pushdown in [true, false] {
            let cfg = DeviceConfig::default().with_pushdown(pushdown);
            let (low, sys) = analyze_on(&plan, &catalog, &cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let compiled = crate::compile::Compiler::new(cfg).compile(&plan, &catalog).unwrap();
            let explain = low.summary.join("\n");
            let replication = compiled.replication().summary();
            assert_eq!(compiled.explain(), format!("{explain}\n{replication}\n"));
            epilogues += low.epilogues.len();
            let (lowered, host) = low.summary.split_at(low.summary.len() - low.epilogues.len());
            for (line, epilogue) in host.iter().zip(&low.epilogues) {
                let node = match epilogue {
                    Epilogue::Sort { .. } => "Sort",
                    Epilogue::Limit { .. } => "Limit",
                };
                assert_eq!(*line, format!("{node} -> host"), "{}", path.display());
            }
            let mut named = BTreeMap::new();
            for line in lowered.iter().filter(|l| !l.starts_with("Pushdown(")) {
                explained_modules(line, &mut named);
            }
            // The graph's module nodes read `m<i> [label="<label>\n(<kind>)", …]`.
            let mut built = BTreeMap::new();
            let dot = sys.to_dot("analysis");
            let mut kinds = BTreeMap::new();
            for node in dot.lines().filter(|l| l.starts_with("  m") && l.contains("shape=")) {
                let (id, label) = node.trim_start().split_once(" [label=\"").unwrap();
                let (label, kind) = label.rsplit_once("\\n(").unwrap();
                let kind = kind.split_once(')').unwrap().0;
                *built.entry(kind.to_owned()).or_insert(0usize) += 1;
                kinds.insert(id, (label, kind));
            }
            // The graph's edges read `  m<producer> -> m<consumer> [label=…]`.
            let producers = |id: &str| -> Vec<&str> {
                let to = format!(" -> {id} [");
                dot.lines().filter_map(|l| l.split_once(&to)).map(|(p, _)| p.trim()).collect()
            };
            for (id, (label, kind)) in kinds.iter().filter(|(_, (_, kind))| *kind == "Zip") {
                let inputs = producers(id);
                assert!(
                    inputs.len() != 1 || label.contains(".explode.zip."),
                    "{} (pushdown {pushdown}): {label} zips one input",
                    path.display()
                );
                assert!(
                    !inputs.iter().all(|p| kinds[p].1 == "MemoryReader"),
                    "{} (pushdown {pushdown}): {label} {kind} reassembles Memory Reader rows",
                    path.display()
                );
            }
            for (id, (label, _)) in kinds.iter().filter(|(_, (_, kind))| *kind == "Filter") {
                assert!(
                    producers(id).iter().all(|p| kinds[p].1 != "ReadToBases"),
                    "{} (pushdown {pushdown}): {label} filters a ReadToBases",
                    path.display()
                );
            }
            assert_eq!(named, built, "{} (pushdown {pushdown}):\n{explain}", path.display());
        }
    }
    assert!(epilogues > 0, "no script sorts or limits on the host");
}

/// Every module a replicated build adds carries its replica's prefix, as
/// its queues and Memory Readers do: in a deadlock's `stuck` list, a stall
/// report or a trace track, a label names one module of one replica.
#[test]
fn every_module_label_of_a_replicated_build_is_unique() {
    let catalog = scripts_catalog();
    let registry = crate::library::ModuleRegistry::with_builtins();
    let cfg = DeviceConfig::default();
    for script in ["coverage", "mate_distance", "insert_size", "figure4"] {
        let path = format!("{}/../../scripts/{script}.sql", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(path).unwrap();
        let plan = crate::compile::script_to_plan(&src, &registry).unwrap();
        let low = analyze(&plan, &catalog, &cfg).unwrap();
        let job = low.prepare(&cfg, &catalog, None, Some(8)).unwrap();
        let whole: Vec<Cut> = job.prepared.iter().map(|p| Cut::rows(0..p.rows)).collect();
        let mut sys = System::new();
        for group in 0..8 {
            let per_row = low.each_row.is_some();
            let scans = (&job.prepared[..], &job.sub_bounds);
            let mut ctx = BuildCtx::new(scans, &whole, group_domain_cap(&cfg), per_row, false);
            build_core(&mut PipelineBuilder::new(&mut sys, group), &mut ctx, &low.core).unwrap();
        }
        let report = sys.stall_report();
        let labels: Vec<&str> = report.modules.iter().map(|m| m.label.as_str()).collect();
        let mut unique = labels.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), labels.len(), "{script}: {labels:?}");
    }
}

/// A GROUP BY drain writes once per non-empty key after its stream has
/// ended, as a Reducer writes once per item: no sustained write port of
/// the cost profile. So the pileup and the histograms replicate to the
/// policy cap, while a stream sink keeps its write ports and its factor.
#[test]
fn a_grouped_drain_is_no_sustained_write_port() {
    // 8,000 pairs, as the genomics catalog holds: `selected.sql` keeps the
    // tenth of them below 2,400.
    let mut catalog = scripts_catalog();
    let pos: Vec<u32> = (0..8_000).map(|i| 3 * i + 1).collect();
    let mpos = pos.iter().map(|&p| p + 40 + p % 16).collect();
    let pairs = table_of(vec![("POS", Column::U32(pos)), ("MPOS", Column::U32(mpos))]);
    catalog.register("PAIRS", pairs);
    let registry = crate::library::ModuleRegistry::with_builtins();
    let compile = |script: &str| {
        let path = format!("{}/../../scripts/{script}.sql", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(path).unwrap();
        let plan = crate::compile::script_to_plan(&src, &registry).unwrap();
        crate::compile::Compiler::new(DeviceConfig::default()).compile(&plan, &catalog).unwrap()
    };
    let drains = ["coverage", "mate_distance", "insert_size"];
    let streams = [("pos_explode_join", 4, "MemoryChannels"), ("selected", 2, "Selectivity")];
    for script in drains {
        let plan = compile(script);
        assert_eq!(plan.profile().write_port_bytes, Vec::<usize>::new(), "{script}");
        let line = plan.replication().summary();
        let capped = line.ends_with("limited by PolicyCap)");
        assert!(line.starts_with("replication 16x ") && capped, "{script}: {line}");
    }
    for (script, factor, bound) in streams {
        let plan = compile(script);
        let columns = plan.output_columns().len();
        assert_eq!(plan.profile().write_port_bytes, vec![8; columns], "{script}");
        let line = plan.replication().summary();
        let (head, tail) = (format!("replication {factor}x "), format!("limited by {bound})"));
        assert!(line.starts_with(&head) && line.ends_with(&tail), "{script}: {line}");
    }
}

/// The grouped merge equals a keyed sum over every run, whether the runs'
/// key windows are disjoint, overlap at their edges (neighbouring spine
/// slices) or all cover one domain, and whatever runs are empty.
#[test]
fn grouped_runs_merge_to_one_ascending_keyed_sum() {
    let roles = [GroupRole::Count, GroupRole::Key, GroupRole::Sum];
    let mut state = 7u64;
    let mut next = |n: u64| {
        state = state.wrapping_mul(6_364_136_223_846_793_005);
        state = state.wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    for (windows, stride, span) in [(6, 50, 50), (6, 50, 60), (5, 0, 40), (9, 7, 3)] {
        let mut runs = Vec::new();
        let mut want: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for w in 0..windows {
            let mut run = vec![Vec::new(), Vec::new(), Vec::new()];
            for key in w * stride..w * stride + span {
                if next(3) == 0 {
                    continue; // a key this replica never saw
                }
                let (count, sum) = (1 + next(4), next(u64::MAX));
                run[0].push(count);
                run[1].push(key);
                run[2].push(sum);
                let slot = want.entry(key).or_default();
                *slot = (slot.0 + count, slot.1.wrapping_add(sum));
            }
            runs.push(run);
        }
        runs.insert(2, vec![Vec::new(); 3]);
        let merged = super::job::merge_runs(&runs, &roles, 1);
        let keys: Vec<u64> = want.keys().copied().collect();
        assert_eq!(merged[1], keys, "{windows} windows of {span} every {stride}");
        assert_eq!(merged[0], want.values().map(|v| v.0).collect::<Vec<_>>());
        assert_eq!(merged[2], want.values().map(|v| v.1).collect::<Vec<_>>());
    }
}
