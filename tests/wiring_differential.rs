//! Differential tests of in-place field reads: a compiled module reads a
//! field where it sits in the row — a GROUP BY's updaters and writers, a
//! projection's ALUs, a join's left key — and an explode outside a loop
//! body emits plain rows, with no Zip selecting fields first. The tables
//! must stay the SQL engine's at 1–16 replicas, 1–3 served shards and
//! pushdown on and off.
//!
//! Six proptests draw (a) a `GROUP BY` whose key and one or two `SUM`
//! columns sit at random fields of a four-column scan, its items in random
//! order, half the time under a seeded fault schedule (the SQL engine's
//! table or a structured error, never a panic); (b) a `GROUP BY` tail —
//! the last updater's done signal and a drain of the nonempty keys — over
//! sparse keys with 0–3 distinct `SUM` columns, sorted ascending,
//! descending or by key and count under a `LIMIT`, its input filtered to
//! nothing half the time; (c) projections that mix computed items
//! (arithmetic and comparisons, negated ones among them, over columns and
//! literals) with pass-through columns in any order; (d) inner and left
//! joins whose left key sits at any field, against a scan or the
//! `PosExplode` of a 1–3-row reference (a per-row delimiter left in that
//! explode shows here); (e) inner and left joins selecting the right key
//! the Joiner reads in place; (f) pileups and explode row streams
//! over reads whose CIGARs hold `S`, `I` and `D` runs, with and without
//! qualities; and (g) explodes the plan reads only in part, which stream
//! only the data columns some reference reads, half the time under a
//! seeded fault schedule; and (h) column-only projections, which name
//! fields of the same flits and build no module, repeating, reordering,
//! renaming and dropping columns below a `Filter`, an inner or left join,
//! a `GROUP BY` whose two `SUM`s read one field, a scalar aggregate and
//! the sink; and (i) scans of 2–8 columns of mixed widths (`BOOL` to
//! `U64`, so one Memory Reader's lanes drain at different rates) over 0,
//! 1 or more rows, feeding a `Filter`, either side of a join, a computed
//! projection, a `GROUP BY` and the sink on both engines, half the time
//! under a seeded fault schedule. A fixed case joins a projection whose
//! flits carry five fields no column reads, which only fits the Joiner's
//! flit once each side keeps just the fields its columns read.

mod common;

use common::{agg, arb_faults, ascending, bin, catalog_of, check, col, filtered, item, join};
use common::{pos_explode, project, read_explode, read_spec, reads_table, ref_table, scan};
use common::{aggregate, table_of, u32_table, Axes, Query, ENGINES};
use genesis::core::fault::FaultConfig;
use genesis::sql::ast::{AggFn, BinOp, ColRef, Expr, JoinKind, SelectItem};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::Column;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The four columns of `T`.
const COLS: [&str; 4] = ["C0", "C1", "C2", "C3"];

/// The operators a computed projection item draws from.
const OPS: [BinOp; 8] =
    [BinOp::Add, BinOp::Sub, BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];

/// `input` under `column < lit` when a bound is drawn as `(kind, lit)`:
/// kind 0 leaves it out.
fn below(input: LogicalPlan, column: &str, (kind, lit): (usize, u64)) -> LogicalPlan {
    filtered(input, column, (kind > 0).then_some((BinOp::Lt, lit)))
}

/// A row of `T`.
type Row = (u32, u32, u32, u32);

/// `T(C0, C1, C2, C3)` over `rows`.
fn t_catalog(rows: &[Row]) -> Catalog {
    let column = |c: usize| rows.iter().map(|r| [r.0, r.1, r.2, r.3][c]).collect();
    let columns = COLS.iter().enumerate().map(|(c, n)| (*n, column(c))).collect();
    catalog_of(vec![("T", u32_table(columns))])
}

/// The compiled plan at `factor` and served at `shards` (same factor),
/// pushdown on or off and under `faults` when drawn, both equal the
/// software engine.
fn differential(
    plan: &LogicalPlan,
    catalog: &Catalog,
    pushdown: bool,
    (factor, shards): (usize, usize),
    faults: Option<FaultConfig>,
) -> Result<(), TestCaseError> {
    let axes = Axes { empty_group_refused: true, ..Axes::at(factor).served(shards) };
    check(plan, catalog, &axes.pushdown(&[pushdown]).faults(faults)).map(drop)
}

/// `SELECT` the key, `COUNT(*)` and a `SUM` of each of `sums` (aliased
/// `S0`, `S1`), rotated by `rot`, grouped and sorted by `key`.
fn grouped(input: LogicalPlan, key: &str, sums: &[&str], rot: usize) -> LogicalPlan {
    let mut items = vec![item(key), agg(AggFn::Count, None)];
    for (i, s) in sums.iter().enumerate() {
        let alias = Some(format!("S{i}"));
        items.push(SelectItem::Agg { func: AggFn::Sum, arg: Some(col(s)), alias });
    }
    let n = items.len();
    items.rotate_left(rot % n);
    let group_by = vec![ColRef::bare(key)];
    let agg = LogicalPlan::Aggregate { input: Box::new(input), items, group_by };
    LogicalPlan::Sort { input: Box::new(agg), keys: vec![(ColRef::bare(key), false)] }
}

/// `SELECT key, COUNT(*) AS N, SUM(s) AS S<i>…` over `input`, grouped by
/// `key` and sorted by `order`: 0 ascending, 1 descending, 2 by key and
/// `N` ascending under `LIMIT limit`.
fn grouped_tail(
    input: LogicalPlan,
    key: &str,
    sums: &[&str],
    order: usize,
    limit: u64,
) -> LogicalPlan {
    let count = SelectItem::Agg { func: AggFn::Count, arg: None, alias: Some("N".into()) };
    let mut items = vec![item(key), count];
    for (i, s) in sums.iter().enumerate() {
        let alias = Some(format!("S{i}"));
        items.push(SelectItem::Agg { func: AggFn::Sum, arg: Some(col(s)), alias });
    }
    let group_by = vec![ColRef::bare(key)];
    let agg = Box::new(LogicalPlan::Aggregate { input: Box::new(input), items, group_by });
    let by_key = (ColRef::bare(key), order == 1);
    if order < 2 {
        return LogicalPlan::Sort { input: agg, keys: vec![by_key] };
    }
    let sorted = LogicalPlan::Sort { input: agg, keys: vec![by_key, (ColRef::bare("N"), false)] };
    LogicalPlan::Limit {
        input: Box::new(sorted),
        offset: Expr::Number(0),
        count: Expr::Number(limit),
    }
}

/// One drawn projection item: `(kind, a, b, op, lit, swap)`. Kind 0
/// passes column `a` through; kind 1 computes `a op b` over two columns,
/// kind 2 `a op lit` (`lit op a` when `swap` is 1 and `op` is not `-`).
type ItemSpec = (usize, usize, usize, usize, u64, usize);

fn item_spec() -> impl Strategy<Value = ItemSpec> {
    (0usize..3, 0usize..4, 0usize..4, 0usize..8, 0u64..120, 0usize..2)
}

/// The projection the `specs` draw; a column passed twice is passed once.
fn projection(input: LogicalPlan, specs: &[ItemSpec]) -> LogicalPlan {
    let mut items = Vec::new();
    let mut passed = Vec::new();
    for (i, &(kind, a, b, op, lit, swap)) in specs.iter().enumerate() {
        let expr = match kind {
            0 if passed.contains(&a) => continue,
            0 => {
                passed.push(a);
                items.push(item(COLS[a]));
                continue;
            }
            1 => bin(OPS[op], col(COLS[a]), col(COLS[b])),
            _ if swap == 1 && OPS[op] != BinOp::Sub => {
                bin(OPS[op], Expr::Number(lit), col(COLS[a]))
            }
            _ => bin(OPS[op], col(COLS[a]), Expr::Number(lit)),
        };
        items.push(SelectItem::Expr { expr, alias: Some(format!("E{i}")) });
    }
    project(input, items)
}

/// `L` with its ascending key `K` at field `kpos` of `(X, Y, K)`
/// rotated, `R` with its ascending key `RK` at field `rpos` of `(W, RK)`,
/// and a `REF(POS, SEQ)` of chained rows `(items, gap)` from `ref_start`:
/// each row's positions start `gap` past the last row's end, so the
/// explode's positions ascend across rows.
fn join_catalog(
    (lk, kpos): (Vec<u32>, usize),
    (rk, rpos): (Vec<u32>, usize),
    ref_start: u32,
    ref_rows: &[(usize, u32)],
) -> Catalog {
    let x = lk.iter().map(|k| (k * 7 + 3) % 23).collect();
    let y = lk.iter().map(|k| k / 2).collect();
    let mut left = vec![("X", x), ("Y", y), ("K", lk)];
    left.rotate_right(kpos % 3 + 1);
    let w = rk.iter().map(|k| (k * 5 + 1) % 19).collect();
    let mut right = vec![("W", w), ("RK", rk)];
    right.rotate_right(rpos % 2 + 1);
    catalog_of(vec![
        ("L", u32_table(left)),
        ("R", u32_table(right)),
        ("REF", ref_table(ref_start, ref_rows)),
    ])
}

/// One drawn column-only item: `(column, rename)`. A column is renamed
/// when `rename` is 1, and whenever it repeats.
type Pick = (usize, usize);

/// The column-only items `picks` draw over `cols`, and each item's output
/// name.
fn picked(cols: &[&str], picks: &[Pick]) -> (Vec<SelectItem>, Vec<String>) {
    let mut seen = Vec::new();
    let mut items = Vec::new();
    let mut names = Vec::new();
    for (i, &(c, rename)) in picks.iter().enumerate() {
        let c = c % cols.len();
        let alias = (rename == 1 || seen.contains(&c)).then(|| format!("P{i}"));
        seen.push(c);
        names.push(alias.clone().unwrap_or_else(|| cols[c].to_owned()));
        items.push(SelectItem::Expr { expr: col(cols[c]), alias });
    }
    (items, names)
}

/// `column AS alias`.
fn renamed(column: &str, alias: &str) -> SelectItem {
    SelectItem::Expr { expr: col(column), alias: Some(alias.to_owned()) }
}

/// `READS` exploded into one row per aligned base, `QUAL` included when
/// `qual` holds, under `POS >= lo`.
fn bases(qual: bool, lo: u64) -> LogicalPlan {
    filtered(read_explode("READS", qual), "POS", Some((BinOp::Ge, lo)))
}

/// `W(C0, C1, …)` of `rows` rows, column `c` of type `types[c]` (0
/// `BOOL`, 1 `U8`, 2 `U16`, 3 `U32`, 4 `U64`) with values drawn from
/// `seed`, `C0` strictly ascending from `seed % 3` (a join and `GROUP BY`
/// key at any type), and `R(RK, V)` with `rk` as its keys.
fn wide_catalog(types: &[usize], rows: usize, seed: u64, rk: Vec<u32>) -> Catalog {
    let val = |r: usize, c: usize| {
        let h = (seed ^ ((r as u64) << 8 | c as u64)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 29)
    };
    let cols: Vec<(String, Column)> = types
        .iter()
        .enumerate()
        .map(|(c, &t)| {
            let v: Vec<u64> = (0..rows)
                .map(|r| if c == 0 { 3 * r as u64 + seed % 3 } else { val(r, c) })
                .collect();
            let col = match t {
                0 => Column::Bool(v.iter().map(|v| v % 2 == 1).collect()),
                1 => Column::U8(v.iter().map(|v| (v % 251) as u8).collect()),
                2 => Column::U16(v.iter().map(|v| (v % 4_000) as u16).collect()),
                3 => Column::U32(v.iter().map(|v| (v % 60_000) as u32).collect()),
                _ => Column::U64(v.iter().map(|v| v % (1 << 40)).collect()),
            };
            (format!("C{c}"), col)
        })
        .collect();
    let w = table_of(cols.iter().map(|(n, c)| (n.as_str(), c.clone())).collect());
    let v = rk.iter().map(|k| (k * 5 + 1) % 19).collect();
    catalog_of(vec![("W", w), ("R", u32_table(vec![("RK", rk), ("V", v)]))])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `GROUP BY` a key at any field with one or two `SUM`s at any fields,
    /// the items rotated, under an optional bound on another column.
    #[test]
    fn group_by_reads_key_and_sums_in_place(
        rows in proptest::collection::vec((0u32..300, 0u32..300, 0u32..300, 0u32..300), 1..50),
        key in 0usize..4,
        sums in proptest::collection::vec(0usize..4, 1..3),
        rot in 0usize..4,
        limit in (0usize..2, 0u64..300),
        factor in 1usize..17,
        shards in 1usize..4,
        pushdown in 0usize..2,
        faults in (0usize..2, arb_faults()),
    ) {
        let cat = t_catalog(&rows);
        let sums: Vec<&str> = sums.iter().map(|&s| COLS[s]).collect();
        let input = below(scan("T"), COLS[(key + 1) % 4], limit);
        let plan = grouped(input, COLS[key], &sums, rot);
        // Seeded faults half the time: the SQL engine's table or a
        // structured error, never a panic.
        let faults = (faults.0 == 1).then_some(faults.1);
        differential(&plan, &cat, pushdown == 1, (factor, shards), faults)?;
    }

    /// The `GROUP BY` tail: keys spread `spread` apart (the scratchpad
    /// window has holes the drain must skip), COUNT with 0–3 distinct
    /// `SUM`s, every sort order the drain stands in for, and half the
    /// time a filter no row survives.
    #[test]
    fn group_by_tail_drains_only_nonempty_keys(
        rows in proptest::collection::vec((0u32..40, 0u32..300, 0u32..300, 0u32..300), 1..50),
        spread in 1u32..40,
        nsums in 0usize..4,
        order in 0usize..3,
        limit in 0u64..12,
        empty in 0usize..2,
        factor in 1usize..17,
        shards in 1usize..4,
        pushdown in 0usize..2,
    ) {
        let rows: Vec<Row> = rows.iter().map(|&(k, a, b, c)| (k * spread, a, b, c)).collect();
        let cat = t_catalog(&rows);
        let input = filtered(scan("T"), "C1", (empty == 1).then_some((BinOp::Gt, 300)));
        let plan = grouped_tail(input, "C0", &COLS[1..=nsums], order, limit);
        differential(&plan, &cat, pushdown == 1, (factor, shards), None)?;
    }

    /// Computed items and pass-through columns in any order over a
    /// (possibly filtered) scan.
    #[test]
    fn projection_reads_operands_in_place(
        rows in proptest::collection::vec((0u32..120, 0u32..120, 0u32..120, 0u32..120), 0..40),
        specs in proptest::collection::vec(item_spec(), 1..7),
        limit in (0usize..2, 0u64..120),
        factor in 1usize..17,
        shards in 1usize..4,
        pushdown in 0usize..2,
    ) {
        let cat = t_catalog(&rows);
        let plan = projection(below(scan("T"), "C3", limit), &specs);
        differential(&plan, &cat, pushdown == 1, (factor, shards), None)?;
    }

    /// `L ⋈ R` or `L ⋈ PosExplode(REF)` over 1–3 reference rows, inner or
    /// left, with `L`'s key at any field and `R`'s at either, under an
    /// optional bound on `L`.
    #[test]
    fn join_compares_the_left_key_in_place(
        lstart in 0u32..24,
        lgaps in proptest::collection::vec(0u32..4, 1..40),
        kpos in 0usize..3,
        rstart in 0u32..24,
        rgaps in proptest::collection::vec(0u32..4, 0..40),
        rpos in 0usize..2,
        ref_start in 0u32..24,
        ref_rows in proptest::collection::vec((1usize..30, 0u32..5), 1..4),
        explode in 0usize..2,
        left_join in 0usize..2,
        limit in (0usize..2, 0u64..23),
        factor in 1usize..17,
        shards in 1usize..4,
        pushdown in 0usize..2,
    ) {
        let cat = join_catalog(
            (ascending(lstart, &lgaps), kpos),
            (ascending(rstart, &rgaps), rpos),
            ref_start,
            &ref_rows,
        );
        let kind = if left_join == 1 { JoinKind::Left } else { JoinKind::Inner };
        let (right, right_key) = if explode == 1 {
            (pos_explode("REF", "SEQ", col("POS")), "POS")
        } else {
            (scan("R"), "RK")
        };
        let plan = join(kind, below(scan("L"), "X", limit), right, ("K", right_key));
        differential(&plan, &cat, pushdown == 1, (factor, shards), None)?;
    }

    /// `SELECT R.RK, L.X, R.W FROM L ⋈ R`, inner or left, with `R`'s key
    /// at either field of the two `R` streams: the right key reaches the
    /// output from where the Joiner compared it, and an unmatched left
    /// row's key is NULL.
    #[test]
    fn join_selects_the_right_key_in_place(
        lstart in 0u32..24,
        lgaps in proptest::collection::vec(0u32..4, 1..40),
        rstart in 0u32..24,
        rgaps in proptest::collection::vec(0u32..4, 0..40),
        rpos in 0usize..2,
        left_join in 0usize..2,
        factor in 1usize..17,
        shards in 1usize..4,
        pushdown in 0usize..2,
    ) {
        let cat = join_catalog(
            (ascending(lstart, &lgaps), 2),
            (ascending(rstart, &rgaps), rpos),
            0,
            &[(1, 0)],
        );
        let kind = if left_join == 1 { JoinKind::Left } else { JoinKind::Inner };
        let joined = join(kind, scan("L"), scan("R"), ("L.K", "R.RK"));
        let picked = |t: &str, c: &str| SelectItem::Expr {
            expr: Expr::Col(ColRef::qualified(t, c)),
            alias: None,
        };
        let plan = project(joined, vec![picked("R", "RK"), picked("L", "X"), picked("R", "W")]);
        differential(&plan, &cat, pushdown == 1, (factor, shards), None)?;
    }

    /// Explodes whose data columns the plan reads in part: a pileup that
    /// reads no base (`COUNT(*)`, and `SUM(POS)` when drawn, by `POS`), one
    /// whose bases only a `WHERE` reads, rows that select `QUAL` and not
    /// `SEQ` (which streams to keep the field layout), `SELECT *`, and a
    /// `PosExplode` join leaf that selects its array or only the left row.
    #[test]
    fn explode_streams_only_what_the_plan_reads(
        lo in 0u32..5_000,
        specs in proptest::collection::vec(read_spec(8, 3, 4), 1..14),
        from in 0u64..20,
        shape in 0usize..6,
        picks in (0usize..2, 0usize..2, 0u64..5),
        lgaps in proptest::collection::vec(0u32..4, 1..40),
        ref_rows in proptest::collection::vec((1usize..30, 0u32..5), 1..4),
        factor in 1usize..17,
        shards in 1usize..4,
        pushdown in 0usize..2,
        faults in (0usize..2, arb_faults()),
    ) {
        let (qual, sum, base) = picks;
        let reads = || catalog_of(vec![("READS", reads_table(lo, &specs, true))]);
        let rows = bases(qual == 1, u64::from(lo) + from);
        let (plan, cat) = match shape {
            0 => (grouped(rows, "POS", &["POS"][..sum], 0), reads()),
            1 => {
                let matched = filtered(rows, "SEQ", Some((BinOp::Lt, base)));
                (grouped(matched, "POS", &[], 0), reads())
            }
            2 => {
                let quals = bases(true, u64::from(lo) + from);
                (project(quals, vec![item("POS"), item("QUAL")]), reads())
            }
            3 => (project(rows, vec![SelectItem::Star]), reads()),
            _ => {
                let cat = join_catalog((ascending(0, &lgaps), 2), (vec![], 0), 0, &ref_rows);
                let reference = pos_explode("REF", "SEQ", col("POS"));
                let joined = join(JoinKind::Inner, scan("L"), reference, ("K", "POS"));
                let mut items = vec![item("X")];
                if shape == 4 {
                    items.push(item("SEQ"));
                }
                (project(joined, items), cat)
            }
        };
        let faults = (faults.0 == 1).then_some(faults.1);
        differential(&plan, &cat, pushdown == 1, (factor, shards), faults)?;
    }

    /// Column-only projections over `T` (or `L`, to join it with `R`)
    /// under an optional bound: shape 0 filters on the first item, 1 joins
    /// on the left key wherever the items put it, 2 groups by one column
    /// with two `SUM`s of another, 3 takes a scalar aggregate and 4 is the
    /// projection itself.
    #[test]
    fn column_only_projection_builds_no_module(
        rows in proptest::collection::vec((0u32..120, 0u32..120, 0u32..120, 0u32..120), 0..40),
        picks in proptest::collection::vec((0usize..4, 0usize..2), 1..6),
        shape in 0usize..5,
        lit in 0u64..120,
        limit in (0usize..2, 0u64..120),
        lgaps in proptest::collection::vec(0u32..4, 1..40),
        kpos in 0usize..3,
        rgaps in proptest::collection::vec(0u32..4, 0..40),
        left_join in 0usize..2,
        factor in 1usize..17,
        shards in 1usize..4,
        pushdown in 0usize..2,
    ) {
        let input = below(scan("T"), "C3", limit);
        let (items, names) = picked(&COLS, &picks);
        let (plan, cat) = match shape {
            0 => {
                let bound = Some((BinOp::Lt, lit));
                (filtered(project(input, items), &names[0], bound), t_catalog(&rows))
            }
            1 => {
                // The key joins wherever the items put it, under its own
                // name.
                let (mut items, names) = picked(&["X", "Y", "K"], &picks);
                if !names.iter().any(|n| n == "K") {
                    items.insert(kpos % (items.len() + 1), item("K"));
                }
                let left = project(below(scan("L"), "X", limit), items);
                let kind = if left_join == 1 { JoinKind::Left } else { JoinKind::Inner };
                let keys = ((ascending(0, &lgaps), kpos), (ascending(1, &rgaps), 0));
                let cat = join_catalog(keys.0, keys.1, 0, &[(1, 0)]);
                (join(kind, left, scan("R"), ("K", "RK")), cat)
            }
            2 => {
                let (key, sum) = (COLS[picks[0].0], COLS[picks[picks.len() - 1].0]);
                let mut items = items;
                items.extend([renamed(key, "G"), renamed(sum, "A"), renamed(sum, "B")]);
                (grouped(project(input, items), "G", &["A", "B"], 0), t_catalog(&rows))
            }
            3 => {
                let (first, last) = (&names[0][..], &names[names.len() - 1][..]);
                let aggs = vec![
                    agg(AggFn::Count, None),
                    agg(AggFn::Sum, Some(first)),
                    agg(AggFn::Min, Some(last)),
                    agg(AggFn::Max, Some(first)),
                ];
                (aggregate(project(input, items), aggs), t_catalog(&rows))
            }
            _ => (project(input, items), t_catalog(&rows)),
        };
        differential(&plan, &cat, pushdown == 1, (factor, shards), None)?;
    }

    /// The pileup, and the exploded rows themselves, over reads from `lo`
    /// on, with and without qualities.
    #[test]
    fn explode_emits_plain_rows(
        lo in 0u32..5_000,
        specs in proptest::collection::vec(read_spec(8, 3, 4), 1..14),
        from in 0u64..20,
        qual in 0usize..2,
        rows in 0usize..2,
        factor in 1usize..17,
        shards in 1usize..4,
        pushdown in 0usize..2,
    ) {
        let cat = catalog_of(vec![("READS", reads_table(lo, &specs, true))]);
        let bases = bases(qual == 1, u64::from(lo) + from);
        let plan = if rows == 1 { bases } else { grouped(bases, "POS", &[], 0) };
        differential(&plan, &cat, pushdown == 1, (factor, shards), None)?;
    }

    /// A scan of 2–8 columns of mixed widths over 0, 1 or more rows
    /// (`len` 0, 1 or `n`): shape 0 filters it on a number column, 1 and
    /// 2 put it on the left or the right of an inner or left join on `C0`
    /// (at most six columns, so the joined row fits a flit with pushdown
    /// off), 3 computes over its number columns beside a passed column, 4
    /// groups it by a small-domain column with a `SUM` of a number column,
    /// and 5 is the scan itself.
    #[test]
    fn multi_column_scan_streams_rows_of_mixed_widths(
        types in proptest::collection::vec(0usize..5, 2..9),
        first in 1usize..5,
        len in (0usize..3, 2usize..40),
        seed in 0u64..1_000_000,
        shape in 0usize..6,
        picks in (0usize..8, 0usize..8, 0usize..8, 0u64..300),
        rgaps in proptest::collection::vec(0u32..4, 0..40),
        left_join in 0usize..2,
        factor in 1usize..17,
        shards in 1usize..4,
        pushdown in 0usize..2,
        faults in (0usize..2, arb_faults()),
    ) {
        let mut types = types;
        types[0] = first;
        if shape == 1 || shape == 2 {
            types.truncate(6);
        }
        let rows = [0, 1, len.1][len.0];
        let cat = wide_catalog(&types, rows, seed, ascending(seed as u32 % 4, &rgaps));
        let numbers: Vec<usize> = (0..types.len()).filter(|&c| types[c] > 0).collect();
        let (a, b, g, lit) = picks;
        let name = |c: usize| format!("C{c}");
        let number = |i: usize| name(numbers[i % numbers.len()]);
        let kind = if left_join == 1 { JoinKind::Left } else { JoinKind::Inner };
        let plan = match shape {
            0 => filtered(scan("W"), &number(a), Some((BinOp::Lt, lit))),
            1 => join(kind, scan("W"), scan("R"), ("C0", "RK")),
            2 => join(kind, scan("R"), scan("W"), ("RK", "C0")),
            3 => {
                let computed = |op: BinOp, rhs: Expr, alias: &str| SelectItem::Expr {
                    expr: bin(op, col(&number(a)), rhs),
                    alias: Some(alias.to_owned()),
                };
                let items = vec![
                    computed(BinOp::Add, Expr::Number(lit), "E0"),
                    item(&name(g % types.len())),
                    computed(OPS[b % OPS.len()], col(&number(b)), "E1"),
                ];
                project(scan("W"), items)
            }
            4 => {
                let keys: Vec<usize> =
                    (0..types.len()).filter(|&c| c == 0 || (1..4).contains(&types[c])).collect();
                grouped(scan("W"), &name(keys[g % keys.len()]), &[&number(b)], a)
            }
            _ => project(scan("W"), vec![SelectItem::Star]),
        };
        let faults = (faults.0 == 1).then_some(faults.1);
        let axes = Axes { empty_group_refused: true, ..Axes::at(factor).served(shards) };
        let axes = axes.pushdown(&[pushdown == 1]).engines(&ENGINES).faults(faults);
        check(&plan, &cat, &axes)?;
    }
}

/// A projection keeps `T`'s key and drops the five columns its filters
/// read, so with pushdown off its flits carry six fields, one of them
/// named: joined with `R`'s four, the flits fit the Joiner only once each
/// side keeps just the fields its columns read.
#[test]
fn join_compacts_flits_that_carry_unread_fields() {
    let keys: Vec<u32> = (0..48).map(|k| k * 3 + 1).collect();
    let spread = |m: u32| keys.iter().map(|k| (k * 7) % m).collect::<Vec<_>>();
    let t = u32_table(vec![
        ("K", keys.clone()),
        ("A", spread(10)),
        ("B", spread(18)),
        ("C", spread(24)),
        ("D", spread(400)),
        ("E", spread(1800)),
    ]);
    let r_keys: Vec<u32> = (0..60).map(|k| k * 2).collect();
    let r = u32_table(vec![
        ("K", r_keys.clone()),
        ("X", r_keys.iter().map(|k| k % 5).collect()),
        ("Y", r_keys.iter().map(|k| k / 3).collect()),
        ("Z", r_keys.iter().map(|k| k + 9).collect()),
    ]);
    let cat = catalog_of(vec![("T", t), ("R", r)]);
    let sql = "CREATE TABLE L AS SELECT K FROM T \
               WHERE A < 5 AND B < 9 AND C < 12 AND D < 200 AND E < 900 \
               INSERT INTO O SELECT * FROM L INNER JOIN R ON L.K = R.K";
    for factor in [1, 3, 16] {
        let axes = Axes::at(factor).served(2).pushdown(&[false, true]);
        check(Query::Script { sql, out: "O" }, &cat, &axes).unwrap();
    }
}
