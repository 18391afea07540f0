//! Differential tests of in-place field reads: a compiled module reads a
//! field where it sits in the row — a GROUP BY's updaters and writers, a
//! projection's ALUs, a join's left key — and an explode outside a loop
//! body emits plain rows, with no Zip selecting fields first. The tables
//! must stay the SQL engine's at 1–16 replicas, 1–3 served shards and
//! pushdown on and off.
//!
//! Four proptests draw (a) a `GROUP BY` whose key and one or two `SUM`
//! columns sit at random fields of a four-column scan, its items in random
//! order; (b) projections that mix computed items (arithmetic and
//! comparisons, negated ones among them, over columns and literals) with
//! pass-through columns in any order; (c) inner and left joins whose left
//! key sits at any field, against a scan or the `PosExplode` of a 1–3-row
//! reference (a per-row delimiter left in that explode shows here); and
//! (d) pileups and explode row streams over reads whose CIGARs hold `S`,
//! `I` and `D` runs, with and without qualities.

use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::sql::ast::{AggFn, BinOp, ColRef, Expr, JoinKind, SelectItem};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::{Cigar, Column, Field, Schema, Table};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The four columns of `T`.
const COLS: [&str; 4] = ["C0", "C1", "C2", "C3"];

/// The operators a computed projection item draws from.
const OPS: [BinOp; 8] =
    [BinOp::Add, BinOp::Sub, BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];

fn table_of(cols: Vec<(&str, Column)>) -> Table {
    let schema = Schema::new(cols.iter().map(|(n, c)| Field::new(n, c.dtype())).collect());
    Table::from_columns(schema, cols.into_iter().map(|(_, c)| c).collect()).unwrap()
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

/// `input` under `column < lit` when a bound is drawn.
fn below(input: LogicalPlan, column: &str, lit: Option<u64>) -> LogicalPlan {
    match lit {
        None => input,
        Some(lit) => LogicalPlan::Filter {
            input: Box::new(input),
            pred: bin(BinOp::Lt, col(column), Expr::Number(lit)),
        },
    }
}

/// A bound drawn as `(kind, value)`: kind 0 leaves it out.
fn bound((kind, lit): (usize, u64)) -> Option<u64> {
    (kind > 0).then_some(lit)
}

/// A row of `T`.
type Row = (u32, u32, u32, u32);

/// `T(C0, C1, C2, C3)` over `rows`.
fn t_catalog(rows: &[Row]) -> Catalog {
    let column = |c: usize| Column::U32(rows.iter().map(|r| [r.0, r.1, r.2, r.3][c]).collect());
    let mut cat = Catalog::new();
    cat.register("T", table_of(COLS.iter().enumerate().map(|(c, n)| (*n, column(c))).collect()));
    cat
}

fn assert_tables(hw: &Table, sw: &Table, what: &str) -> Result<(), TestCaseError> {
    let (hs, ss) = (hw.schema(), sw.schema());
    prop_assert!(hs == ss, "{what}: schema {hs:?} vs {ss:?}");
    let (hn, sn) = (hw.num_rows(), sw.num_rows());
    prop_assert!(hn == sn, "{what}: {hn} rows vs {sn}");
    for r in 0..hw.num_rows() {
        prop_assert!(hw.row(r) == sw.row(r), "{what}: row {r}: {:?} vs {:?}", hw.row(r), sw.row(r));
    }
    Ok(())
}

/// The compiled plan at `factor` and served at `shards` (same factor),
/// pushdown on or off, both equal the software engine.
fn differential(
    plan: &LogicalPlan,
    catalog: &Catalog,
    pushdown: bool,
    factor: usize,
    shards: usize,
) -> Result<(), TestCaseError> {
    let cfg = DeviceConfig::small().with_pushdown(pushdown);
    let sw = execute_plan(plan, catalog, &Env::default())
        .map_err(|e| TestCaseError::fail(format!("software run failed: {e}")))?;
    let compiled = match Compiler::new(cfg.clone()).compile(plan, catalog) {
        Ok(compiled) => compiled,
        // A grouped aggregate over a scan that binds no row has no key
        // bound to size its scratchpad, and is refused (`serve_edges.rs`
        // holds that refusal).
        Err(e) if sw.num_rows() == 0 && e.to_string().contains("no derivable domain bound") => {
            return Ok(())
        }
        Err(e) => return Err(TestCaseError::fail(format!("compile failed: {e}"))),
    };
    let (hw, _) = compiled
        .execute_replicated(catalog, factor)
        .map_err(|e| TestCaseError::fail(format!("run at {factor}x failed: {e}")))?;
    assert_tables(&hw, &sw, &format!("{factor}x"))?;
    let server =
        GenesisServer::new(ServerConfig::default().with_devices(1, cfg).with_shards(shards));
    let (served, _) = server
        .submit(Request::new("t", plan.clone()).with_replication(factor), catalog)
        .and_then(|ticket| ticket.wait())
        .map_err(|e| TestCaseError::fail(format!("served run failed: {e}")))?;
    assert_tables(&served, &sw, &format!("{shards} shard(s) at {factor}x"))
}

/// `SELECT` the key, `COUNT(*)` and a `SUM` of each of `sums` (aliased
/// `S0`, `S1`), rotated by `rot`, grouped and sorted by `key`.
fn grouped(input: LogicalPlan, key: &str, sums: &[&str], rot: usize) -> LogicalPlan {
    let mut items = vec![
        SelectItem::Expr { expr: col(key), alias: None },
        SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
    ];
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
                items.push(SelectItem::Expr { expr: col(COLS[a]), alias: None });
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
    LogicalPlan::Project { input: Box::new(input), items }
}

/// Strictly ascending keys from `start`, each `gap + 1` past the last.
fn ascending(start: u32, gaps: &[u32]) -> Vec<u32> {
    gaps.iter()
        .scan(start, |k, &gap| {
            let at = *k;
            *k += gap + 1;
            Some(at)
        })
        .collect()
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
    let x = Column::U32(lk.iter().map(|k| (k * 7 + 3) % 23).collect());
    let y = Column::U32(lk.iter().map(|k| k / 2).collect());
    let mut left = vec![("X", x), ("Y", y), ("K", Column::U32(lk))];
    left.rotate_right(kpos % 3 + 1);
    let w = Column::U32(rk.iter().map(|k| (k * 5 + 1) % 19).collect());
    let mut right = vec![("W", w), ("RK", Column::U32(rk))];
    right.rotate_right(rpos % 2 + 1);
    let (mut pos, mut seq) = (Vec::new(), Vec::new());
    let mut next = ref_start;
    for (i, &(items, gap)) in ref_rows.iter().enumerate() {
        pos.push(next);
        seq.push((0..items).map(|j| ((i + j) % 4) as u8).collect::<Vec<u8>>());
        next += items as u32 + gap;
    }
    let mut cat = Catalog::new();
    cat.register("L", table_of(left));
    cat.register("R", table_of(right));
    cat.register("REF", table_of(vec![("POS", Column::U32(pos)), ("SEQ", Column::ListU8(seq))]));
    cat
}

/// One read, `(delta, (lead, tail), middle)`: it starts `delta` past the
/// read before it, and its CIGAR soft-clips `lead` and `tail` bases around
/// a `1M … 1M` that holds the `(op, len)` runs of `middle` over `M I D`.
type ReadSpec = (u32, (u32, u32), Vec<(usize, u32)>);

fn read_spec() -> impl Strategy<Value = ReadSpec> {
    (0u32..8, (0u32..3, 0u32..3), proptest::collection::vec((0usize..3, 1u32..4), 0..4))
}

/// `READS(POS, CIGAR, SEQ, QUAL)` from `specs`, the first read at `lo`.
fn reads_catalog(lo: u32, specs: &[ReadSpec]) -> Catalog {
    let (mut pos, mut cigars) = (Vec::new(), Vec::new());
    let (mut seqs, mut quals) = (Vec::new(), Vec::new());
    let mut at = lo;
    for (i, (delta, (lead, tail), mid)) in specs.iter().enumerate() {
        at += delta;
        let mut cigar = if *lead > 0 { format!("{lead}S1M") } else { "1M".to_owned() };
        for &(op, len) in mid {
            cigar.push_str(&format!("{len}{}", ['M', 'I', 'D'][op]));
        }
        cigar.push_str("1M");
        if *tail > 0 {
            cigar.push_str(&format!("{tail}S"));
        }
        let query = lead + tail + 2 + mid.iter().filter(|m| m.0 < 2).map(|m| m.1).sum::<u32>();
        pos.push(at);
        cigars.push(cigar.parse::<Cigar>().unwrap().pack().unwrap());
        seqs.push((0..query).map(|j| ((i as u32 + j) % 4) as u8).collect::<Vec<u8>>());
        quals.push((0..query).map(|j| (20 + (i as u32 * 3 + j) % 20) as u8).collect::<Vec<u8>>());
    }
    let mut cat = Catalog::new();
    cat.register(
        "READS",
        table_of(vec![
            ("POS", Column::U32(pos)),
            ("CIGAR", Column::ListU16(cigars)),
            ("SEQ", Column::ListU8(seqs)),
            ("QUAL", Column::ListU8(quals)),
        ]),
    );
    cat
}

/// `READS` exploded into one row per aligned base, `QUAL` included when
/// `qual` holds, under `POS >= lo`.
fn bases(qual: bool, lo: u64) -> LogicalPlan {
    let explode = LogicalPlan::ReadExplode {
        input: Box::new(scan("READS")),
        pos: col("POS"),
        cigar: ColRef::bare("CIGAR"),
        seq: ColRef::bare("SEQ"),
        qual: qual.then(|| ColRef::bare("QUAL")),
    };
    let pred = bin(BinOp::Ge, col("POS"), Expr::Number(lo));
    LogicalPlan::Filter { input: Box::new(explode), pred }
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
    ) {
        let cat = t_catalog(&rows);
        let sums: Vec<&str> = sums.iter().map(|&s| COLS[s]).collect();
        let input = below(scan("T"), COLS[(key + 1) % 4], bound(limit));
        let plan = grouped(input, COLS[key], &sums, rot);
        differential(&plan, &cat, pushdown == 1, factor, shards)?;
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
        let plan = projection(below(scan("T"), "C3", bound(limit)), &specs);
        differential(&plan, &cat, pushdown == 1, factor, shards)?;
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
            let explode = LogicalPlan::PosExplode {
                input: Box::new(scan("REF")),
                array: ColRef::bare("SEQ"),
                init_pos: col("POS"),
            };
            (explode, "POS")
        } else {
            (scan("R"), "RK")
        };
        let plan = LogicalPlan::Join {
            kind,
            left: Box::new(below(scan("L"), "X", bound(limit))),
            right: Box::new(right),
            left_key: ColRef::bare("K"),
            right_key: ColRef::bare(right_key),
        };
        differential(&plan, &cat, pushdown == 1, factor, shards)?;
    }

    /// The pileup, and the exploded rows themselves, over reads from `lo`
    /// on, with and without qualities.
    #[test]
    fn explode_emits_plain_rows(
        lo in 0u32..5_000,
        specs in proptest::collection::vec(read_spec(), 1..14),
        from in 0u64..20,
        qual in 0usize..2,
        rows in 0usize..2,
        factor in 1usize..17,
        shards in 1usize..4,
        pushdown in 0usize..2,
    ) {
        let cat = reads_catalog(lo, &specs);
        let bases = bases(qual == 1, u64::from(lo) + from);
        let plan = if rows == 1 { bases } else { grouped(bases, "POS", &[], 0) };
        differential(&plan, &cat, pushdown == 1, factor, shards)?;
    }
}
