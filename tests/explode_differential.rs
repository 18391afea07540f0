//! Differential proptests for the explode lowerings: randomized reads
//! (mixed CIGARs with clips, insertions, deletions, and skips, bases past
//! what the CIGAR consumes — and empty tables) are pushed through
//! `ReadExplode`- and `PosExplode`-rooted scripts and plans on the general
//! compile path, executed on the simulated device under both simulation
//! engines, and checked bit-for-bit against the `genesis::sql` software
//! engine.

mod common;

use common::{arb_faults, bin, catalog_of, check, col, filter, grouped, item, join, pos_explode};
use common::{project, read_explode, read_spec, reads_table, ref_table, scan, spine_keys};
use common::{table_of, u32_table, Axes, Query, ReadSpec, CMP_OPS, ENGINES};
use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::core::CoreError;
use genesis::sql::ast::{BinOp, Expr, JoinKind};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::{Cigar, Column, Table};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const COVERAGE_SQL: &str = include_str!("../scripts/coverage.sql");

const POS_EXPLODE_JOIN_SQL: &str = include_str!("../scripts/pos_explode_join.sql");

const MATE_DISTANCE_SQL: &str = include_str!("../scripts/mate_distance.sql");

/// A `READS` table from the specs, the first read at 1: structurally
/// valid CIGARs (optional soft clips at the ends, an M-anchored middle of
/// `M I D N` runs so I/D/N never lead or trail), positions ascending as in
/// a coordinate-sorted BAM.
fn reads_catalog(specs: &[ReadSpec]) -> Catalog {
    catalog_of(vec![("READS", reads_table(1, specs, false))])
}

/// `PAIRS(POS, MPOS)` and a single-row `REF` of `ref_len` positions from 0.
fn pairs_catalog(pos: Vec<u32>, mpos: Vec<u32>, ref_len: usize) -> Catalog {
    let pairs = u32_table(vec![("POS", pos), ("MPOS", mpos)]);
    catalog_of(vec![("PAIRS", pairs), ("REF", ref_table(0, &[(ref_len, 0)]))])
}

/// `reads` with each read's `SEQ` and `QUAL` `extra[i]` items longer
/// (`extra` cycled), past what its CIGAR consumes.
fn with_trailing(reads: &Table, extra: &[u8]) -> Table {
    let fields = reads.schema().fields();
    let cols = fields.iter().enumerate().map(|(ci, f)| {
        let col = match reads.column_at(ci) {
            Column::ListU8(rows) => Column::ListU8(
                rows.iter()
                    .zip(extra.iter().cycle())
                    .map(|(items, &n)| items.iter().copied().chain((0..n).map(|j| j % 4)).collect())
                    .collect(),
            ),
            other => other.clone(),
        };
        (f.name.as_str(), col)
    });
    table_of(cols.collect())
}

/// `SELECT POS, SEQ[, QUAL]` over `READS` exploded: the bases are read,
/// so they stream.
fn selected_bases(qual: bool) -> LogicalPlan {
    let mut items = vec![item("POS"), item("SEQ")];
    if qual {
        items.push(item("QUAL"));
    }
    project(read_explode("READS", qual), items)
}

/// `explode` under a window on `POS` — `shape` 0–4 compares it with `lo`
/// by `=`, `<`, `<=`, `>` or `>=`, and 5 is `POS >= lo AND POS < lo +
/// span` — and, when drawn, a second Filter on the base, `SEQ op lit`
/// (`op` a [`CMP_OPS`] index). The compiled road folds both into the
/// explode's guard.
fn guarded(
    explode: LogicalPlan,
    (shape, lo, span): (usize, u64, u64),
    base: Option<(usize, u64)>,
) -> LogicalPlan {
    const WINDOWS: [BinOp; 5] = [BinOp::Eq, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
    let pos = |op, lit| bin(op, col("POS"), Expr::Number(lit));
    let window = match WINDOWS.get(shape) {
        Some(&op) => pos(op, lo),
        None => bin(BinOp::And, pos(BinOp::Ge, lo), pos(BinOp::Lt, lo + span)),
    };
    let windowed = filter(explode, window);
    match base {
        Some((op, lit)) => filter(windowed, bin(CMP_OPS[op], col("SEQ"), Expr::Number(lit))),
        None => windowed,
    }
}

/// `script`'s `out` table compiled at `factor`, and executed again after a
/// run over the reversed tables, equals the software engine's on both
/// engines.
fn differential(
    sql: &str,
    catalog: &Catalog,
    out: &str,
    factor: usize,
) -> Result<(), TestCaseError> {
    let axes = Axes::at(factor).engines(&ENGINES).reused();
    check(Query::Script { sql, out }, catalog, &axes).map(drop)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// ReadExplode lowering: randomized CIGAR mixes (clips at either end,
    /// insertions, deletions, reference skips) and read counts from zero
    /// up, pushed through the coverage grouped aggregate.
    #[test]
    fn read_explode_coverage_differential(
        specs in proptest::collection::vec(read_spec(6, 4, 5), 0..10),
        factor in 1usize..3,
    ) {
        let catalog = reads_catalog(&specs);
        differential(COVERAGE_SQL, &catalog, "Coverage", factor)?;
    }

    /// The mate-distance shape (`MPOS - POS` GROUP BY key through
    /// PosExplode + join) with signed per-row mate offsets: whenever any
    /// scanned row has `MPOS < POS` the key would wrap (`wrapping_sub`
    /// in the software engine), so the compiler must reject the plan
    /// with a structured `Unsupported`; wrap-free inputs — including
    /// ones whose column *ranges* overlap — must stay bit-identical to
    /// the software engine across the full engine matrix.
    #[test]
    fn mate_distance_wrap_straddling_differential(
        mask in proptest::collection::vec(0usize..2, 32..33),
        deltas in proptest::collection::vec(-2i64..6, 1..8),
        factor in 1usize..3,
    ) {
        let pos = spine_keys(&mask);
        let mpos: Vec<u32> = pos
            .iter()
            .enumerate()
            .map(|(i, &p)| u32::try_from((i64::from(p) + deltas[i % deltas.len()]).max(0)).unwrap())
            .collect();
        let wraps = pos.iter().zip(&mpos).any(|(p, m)| m < p);
        let catalog = pairs_catalog(pos, mpos, 48);
        let compiled = Compiler::new(DeviceConfig::small()).compile_sql(MATE_DISTANCE_SQL, &catalog);
        match (wraps, compiled) {
            (true, Ok(_)) => {
                return Err(TestCaseError::fail(
                    "a wrap-possible MPOS - POS key must not compile".to_owned(),
                ))
            }
            (true, Err(CoreError::Unsupported { node, .. })) => {
                prop_assert_eq!(node, "Aggregate(GROUP BY)");
            }
            (_, Err(e)) => {
                return Err(TestCaseError::fail(format!("unexpected compile error: {e}")))
            }
            (false, Ok(_)) => differential(MATE_DISTANCE_SQL, &catalog, "MateHist", factor)?,
        }
    }

    /// PosExplode lowering: the exploded reference joined against a
    /// random subset of positions, full join output projected.
    #[test]
    fn pos_explode_join_differential(
        mask in proptest::collection::vec(0usize..2, 48..49),
        offsets in proptest::collection::vec(0u32..9, 1..8),
        factor in 1usize..3,
    ) {
        let pos = spine_keys(&mask);
        let mpos = pos.iter().enumerate().map(|(i, &p)| p + 1 + offsets[i % offsets.len()]).collect();
        let catalog = pairs_catalog(pos, mpos, 64);
        differential(POS_EXPLODE_JOIN_SQL, &catalog, "Joined", factor)?;
    }

    /// Reads whose `SEQ` and `QUAL` hold up to three items past what their
    /// CIGAR consumes, the bases (and qualities) selected so they stream:
    /// each read streams only its consumed prefix.
    #[test]
    fn bases_past_the_cigar_differential(
        specs in proptest::collection::vec(read_spec(6, 4, 5), 1..10),
        extra in proptest::collection::vec(0u8..4, 1..10),
        qual in 0usize..2,
        factor in 1usize..3,
    ) {
        let reads = with_trailing(&reads_table(1, &specs, true), &extra);
        let catalog = catalog_of(vec![("READS", reads)]);
        let axes = Axes::at(factor).served(2).engines(&ENGINES);
        check(&selected_bases(qual == 1), &catalog, &axes)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A window on `POS` and a base filter straight over either explode,
    /// which the compiled road folds into the ReadToBases as its guard:
    /// reads with clips, insertions, deletions and skips straddling the
    /// bounds, or a chained reference, whose guarded stream feeds the
    /// sink, a `GROUP BY POS` or (the reference, whose positions ascend)
    /// either side of a join, at 1–16 replicas and 1–3 shards, pushdown
    /// on and off, on both engines, half the time under seeded faults.
    #[test]
    fn guarded_explode_differential(
        specs in proptest::collection::vec(read_spec(6, 4, 5), 0..10),
        ref_rows in proptest::collection::vec((1usize..24, 0u32..4), 1..4),
        keys in proptest::collection::vec(0usize..2, 40..41),
        window in (0usize..6, 0u64..40, 1u64..12),
        base in (0usize..8, 0u64..4),
        explode in 0usize..2,
        consumer in 0usize..4,
        factor in 1usize..17,
        shards in 1usize..4,
        faults in (0usize..2, arb_faults()),
    ) {
        // A base filter three times in four.
        let base = Some(base).filter(|b| b.0 < CMP_OPS.len());
        let (plan, catalog) = if explode == 0 {
            let reads = guarded(read_explode("READS", false), window, base);
            let plan = if consumer % 2 == 0 { reads } else { grouped(reads, "POS", &[]) };
            (plan, reads_catalog(&specs))
        } else {
            let refs = guarded(pos_explode("REF", "SEQ", col("POS")), window, base);
            let plan = match consumer {
                0 => refs,
                1 => grouped(refs, "POS", &[]),
                2 => join(JoinKind::Inner, refs, scan("L"), ("POS", "LK")),
                _ => join(JoinKind::Inner, scan("L"), refs, ("LK", "POS")),
            };
            let keys = u32_table(vec![("LK", spine_keys(&keys))]);
            (plan, catalog_of(vec![("REF", ref_table(1, &ref_rows)), ("L", keys)]))
        };
        let axes = Axes {
            empty_group_refused: true,
            ..Axes::at(factor)
                .served(shards)
                .pushdown(&[true, false])
                .engines(&ENGINES)
                .faults((faults.0 == 1).then_some(faults.1))
                .reused()
        };
        check(&plan, &catalog, &axes)?;
    }
}

/// The second of three reads holds six bases for its `3M`: the SQL
/// engine's 11 rows, where the compiled road once deadlocked with its
/// ReadToBases waiting on a `SEQ` delimiter behind the unconsumed bases.
#[test]
fn a_read_longer_than_its_cigar_explodes_to_its_aligned_bases() {
    let cigars = ["4M", "3M", "2M1I1M"].map(|c| c.parse::<Cigar>().unwrap().pack().unwrap());
    let seqs = vec![vec![0, 1, 2, 3], vec![1, 2, 3, 0, 1, 2], vec![2, 3, 0, 1]];
    let reads = table_of(vec![
        ("POS", Column::U32(vec![1, 10, 20])),
        ("CIGAR", Column::ListU16(cigars.to_vec())),
        ("SEQ", Column::ListU8(seqs)),
    ]);
    let catalog = catalog_of(vec![("READS", reads)]);
    let plan = selected_bases(false);
    assert_eq!(execute_plan(&plan, &catalog, &Env::default()).unwrap().num_rows(), 11);
    check(&plan, &catalog, &Axes::at(2).served(1).engines(&ENGINES)).unwrap();
}

/// The deterministic corner proptest shrinking tends to land on: an
/// entirely empty `READS` table must flow through explode, filter, and
/// grouped aggregate to an empty result on every engine.
#[test]
fn empty_reads_table_explodes_to_empty_coverage() {
    let catalog = reads_catalog(&[]);
    differential(COVERAGE_SQL, &catalog, "Coverage", 2).unwrap();
}
