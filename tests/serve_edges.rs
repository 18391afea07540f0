//! Empty-input edges of the serving path (ROADMAP D-iv): a zero-row
//! table, a filter that drops every row, and a spine with fewer rows than
//! shards — each through `GenesisServer` at 1 and 2 shards with batching
//! on and off. Every request must resolve exactly once, without a panic,
//! to the table the software engine computes. The one shape that does not
//! lower over an empty stream — a grouped aggregate, whose scratchpad
//! domain comes from the scanned keys — must be refused at `submit` with
//! a structured error, never queued.

use genesis::core::device::DeviceConfig;
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::core::CoreError;
use genesis::sql::ast::{AggFn, BinOp, ColRef, Expr, SelectItem};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::{Column, DataType, Field, Schema, Table};

fn catalog(xs: Vec<u32>) -> Catalog {
    let ks = xs.iter().map(|x| x % 3).collect();
    let table = Table::from_columns(
        Schema::new(vec![Field::new("X", DataType::U32), Field::new("K", DataType::U32)]),
        vec![Column::U32(xs), Column::U32(ks)],
    )
    .unwrap();
    let mut cat = Catalog::new();
    cat.register("T", table);
    cat
}

fn col(name: &str) -> Expr {
    Expr::Col(ColRef::bare(name))
}

/// `FROM T WHERE X < bound`
fn below(bound: u64) -> LogicalPlan {
    LogicalPlan::Filter {
        input: Box::new(LogicalPlan::Scan { table: "T".into(), partition: None }),
        pred: Expr::Bin {
            op: BinOp::Lt,
            lhs: Box::new(col("X")),
            rhs: Box::new(Expr::Number(bound)),
        },
    }
}

fn agg(func: AggFn, arg: Option<Expr>) -> SelectItem {
    SelectItem::Agg { func, arg, alias: None }
}

/// `SELECT K, COUNT(*) FROM <input> GROUP BY K ORDER BY K`
fn grouped(input: &LogicalPlan) -> LogicalPlan {
    LogicalPlan::Sort {
        input: Box::new(LogicalPlan::Aggregate {
            input: Box::new(input.clone()),
            items: vec![SelectItem::Expr { expr: col("K"), alias: None }, agg(AggFn::Count, None)],
            group_by: vec![ColRef::bare("K")],
        }),
        keys: vec![(ColRef::bare("K"), false)],
    }
}

/// Streamed rows and scalar aggregates over `input`.
fn stream_and_scalar(input: &LogicalPlan) -> Vec<LogicalPlan> {
    vec![
        input.clone(),
        LogicalPlan::Aggregate {
            input: Box::new(input.clone()),
            items: vec![
                agg(AggFn::Count, None),
                agg(AggFn::Sum, Some(col("X"))),
                agg(AggFn::Min, Some(col("X"))),
                agg(AggFn::Max, Some(col("X"))),
            ],
            group_by: vec![],
        },
    ]
}

/// Submits every plan twice to a paused server (so identical requests
/// can coalesce when batching is on), resumes, and checks every ticket
/// against the software engine. `refused` must not pass `submit`.
fn check(what: &str, cat: &Catalog, plans: &[LogicalPlan], refused: Option<&LogicalPlan>) {
    for shards in [1, 2] {
        for batching in [false, true] {
            let server = GenesisServer::new(
                ServerConfig::default()
                    .with_devices(2, DeviceConfig::small())
                    .with_shards(shards)
                    .with_batching(batching)
                    .start_paused(),
            );
            let tickets: Vec<_> = plans
                .iter()
                .flat_map(|p| [p, p])
                .map(|p| (p, server.submit(Request::new("t", p.clone()), cat).unwrap()))
                .collect();
            if let Some(plan) = refused {
                let err = server.submit(Request::new("t", plan.clone()), cat).unwrap_err();
                let CoreError::Unsupported { node, reason } = err else { panic!("{what}: {err}") };
                assert_eq!(node, "Aggregate(GROUP BY)");
                assert_eq!(reason, "group key K has no derivable domain bound");
            }
            server.resume();
            let submitted = tickets.len() as u64;
            for (plan, ticket) in tickets {
                let (hw, _) = ticket.wait().unwrap_or_else(|e| {
                    panic!("{what}, {shards} shard(s), batching {batching}: {e}")
                });
                let sw = execute_plan(plan, cat, &Env::default()).unwrap();
                let names = |t: &Table| -> Vec<String> {
                    t.schema().fields().iter().map(|f| f.name.clone()).collect()
                };
                assert_eq!(names(&hw), names(&sw), "{what}: schema");
                let rows = |t: &Table| (0..t.num_rows()).map(|r| t.row(r)).collect::<Vec<_>>();
                assert_eq!(
                    rows(&hw),
                    rows(&sw),
                    "{what}, {shards} shard(s), batching {batching}"
                );
            }
            assert_eq!(server.completed(), submitted, "{what}: every ticket resolves once");
            assert_eq!(
                server.metrics_snapshot().counters["server.jobs.completed"],
                submitted,
                "{what}: completions counted once"
            );
        }
    }
}

#[test]
fn zero_row_table() {
    let input = below(10);
    check("zero-row table", &catalog(vec![]), &stream_and_scalar(&input), Some(&grouped(&input)));
}

#[test]
fn filter_that_drops_every_row() {
    let input = below(0);
    let cat = catalog((0..40).collect());
    check("all rows dropped", &cat, &stream_and_scalar(&input), Some(&grouped(&input)));
}

#[test]
fn spine_shorter_than_the_shard_count() {
    let input = below(10);
    let mut plans = stream_and_scalar(&input);
    plans.push(grouped(&input));
    check("one-row spine", &catalog(vec![7]), &plans, None);
}
