//! Differential proptests for the explode lowerings: randomized reads
//! (mixed CIGARs with clips, insertions, deletions, and skips — and empty
//! tables) are pushed through `ReadExplode`- and `PosExplode`-rooted
//! scripts on the general compile path, executed on the simulated device
//! under both simulation engines, and checked bit-for-bit
//! against the `genesis::sql` software engine.

use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::core::CoreError;
use genesis::hw::EngineMode;
use genesis::sql::{Catalog, Script};
use genesis::types::{Column, DataType, Field, Schema, Table};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Both simulation engines.
const MATRIX: [EngineMode; 2] = [EngineMode::Fast, EngineMode::Reference];

const COVERAGE_SQL: &str = include_str!("../scripts/coverage.sql");

const POS_EXPLODE_JOIN_SQL: &str = include_str!("../scripts/pos_explode_join.sql");

const MATE_DISTANCE_SQL: &str = include_str!("../scripts/mate_distance.sql");

/// One randomized read: a structurally valid CIGAR (optional soft clips
/// at the ends, M-anchored middle so I/D/N never lead or trail) plus the
/// query sequence it consumes.
#[derive(Debug, Clone)]
struct ReadSpec {
    pos_delta: u32,
    lead_clip: u32,
    tail_clip: u32,
    /// (op index into `M I D N`, length); wrapped in `1M ... 1M`.
    mid: Vec<(usize, u32)>,
}

fn read_spec() -> impl Strategy<Value = ReadSpec> {
    (
        0u32..6,
        0u32..3,
        0u32..3,
        proptest::collection::vec(((0usize..4), (1u32..4)), 0..5),
    )
        .prop_map(|(pos_delta, lead_clip, tail_clip, mid)| ReadSpec {
            pos_delta,
            lead_clip,
            tail_clip,
            mid,
        })
}

impl ReadSpec {
    fn cigar(&self) -> String {
        const OPS: [char; 4] = ['M', 'I', 'D', 'N'];
        let mut s = String::new();
        if self.lead_clip > 0 {
            s.push_str(&format!("{}S", self.lead_clip));
        }
        s.push_str("1M");
        for &(op, len) in &self.mid {
            s.push_str(&format!("{len}{}", OPS[op]));
        }
        s.push_str("1M");
        if self.tail_clip > 0 {
            s.push_str(&format!("{}S", self.tail_clip));
        }
        s
    }

    /// Query bases the CIGAR consumes (S, M, I).
    fn query_len(&self) -> u32 {
        self.lead_clip
            + self.tail_clip
            + 2
            + self.mid.iter().map(|&(op, len)| if op < 2 { len } else { 0 }).sum::<u32>()
    }
}

/// Builds a `READS` table from the specs (positions ascending, as in a
/// coordinate-sorted BAM).
fn reads_catalog(specs: &[ReadSpec]) -> Catalog {
    let mut pos = Vec::new();
    let mut cigars = Vec::new();
    let mut seqs = Vec::new();
    let mut p = 1u32;
    for (i, spec) in specs.iter().enumerate() {
        p += spec.pos_delta;
        pos.push(p);
        cigars.push(spec.cigar().parse::<genesis::types::Cigar>().unwrap().pack().unwrap());
        seqs.push((0..spec.query_len()).map(|j| ((i as u32 + j) % 4) as u8).collect());
    }
    let table = Table::from_columns(
        Schema::new(vec![
            Field::new("POS", DataType::U32),
            Field::new("CIGAR", DataType::ListU16),
            Field::new("SEQ", DataType::ListU8),
        ]),
        vec![Column::U32(pos), Column::ListU16(cigars), Column::ListU8(seqs)],
    )
    .unwrap();
    let mut cat = Catalog::new();
    cat.register("READS", table);
    cat
}

/// `PAIRS` (strictly ascending unique positions from a subset mask) and a
/// single-row `REF` long enough to cover every position.
fn pairs_catalog(mask: &[usize], offsets: &[u32]) -> Catalog {
    let mut pos: Vec<u32> =
        mask.iter().enumerate().filter(|(_, &m)| m == 1).map(|(i, _)| i as u32).collect();
    if pos.is_empty() {
        pos.push(0); // the join spine scan must be non-empty
    }
    let mpos: Vec<u32> =
        pos.iter().enumerate().map(|(i, &p)| p + 1 + offsets[i % offsets.len()]).collect();
    let ref_len = 64usize;
    let mut cat = Catalog::new();
    cat.register(
        "PAIRS",
        Table::from_columns(
            Schema::new(vec![Field::new("POS", DataType::U32), Field::new("MPOS", DataType::U32)]),
            vec![Column::U32(pos), Column::U32(mpos)],
        )
        .unwrap(),
    );
    cat.register(
        "REF",
        Table::from_columns(
            Schema::new(vec![Field::new("POS", DataType::U32), Field::new("SEQ", DataType::ListU8)]),
            vec![
                Column::U32(vec![0]),
                Column::ListU8(vec![(0..ref_len).map(|j| (j % 4) as u8).collect()]),
            ],
        )
        .unwrap(),
    );
    cat
}

fn assert_tables_equal(hw: &Table, sw: &Table, what: &str) -> Result<(), TestCaseError> {
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

/// Runs the software oracle, then compiles and runs `script` for each
/// engine of the matrix, comparing the hardware output table bit-for-bit.
fn differential(
    script: &str,
    catalog: &Catalog,
    out: &str,
    factor: usize,
) -> Result<(), TestCaseError> {
    let sw = {
        let mut cat = catalog.clone_tables();
        Script::parse(script)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?
            .run(&mut cat)
            .map_err(|e| TestCaseError::fail(format!("software run failed: {e}")))?;
        cat.table(out)
            .ok_or_else(|| TestCaseError::fail(format!("oracle produced no {out}")))?
            .clone()
    };
    for engine in MATRIX {
        let what = format!("{engine:?} @{factor}x");
        let (hw, _) = Compiler::new(DeviceConfig::small().with_engine(engine))
            .compile_sql(script, catalog)
            .map_err(|e| TestCaseError::fail(format!("{what}: compile failed: {e}")))?
            .execute_replicated(catalog, factor)
            .map_err(|e| TestCaseError::fail(format!("{what}: hardware run failed: {e}")))?;
        assert_tables_equal(&hw, &sw, &what)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// ReadExplode lowering: randomized CIGAR mixes (clips at either end,
    /// insertions, deletions, reference skips) and read counts from zero
    /// up, pushed through the coverage grouped aggregate.
    #[test]
    fn read_explode_coverage_differential(
        specs in proptest::collection::vec(read_spec(), 0..10),
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
        let mut pos: Vec<u32> =
            mask.iter().enumerate().filter(|(_, &m)| m == 1).map(|(i, _)| i as u32).collect();
        if pos.is_empty() {
            pos.push(0);
        }
        let mpos: Vec<u32> = pos
            .iter()
            .enumerate()
            .map(|(i, &p)| u32::try_from((i64::from(p) + deltas[i % deltas.len()]).max(0)).unwrap())
            .collect();
        let wraps = pos.iter().zip(&mpos).any(|(p, m)| m < p);
        let mut catalog = Catalog::new();
        catalog.register(
            "PAIRS",
            Table::from_columns(
                Schema::new(vec![
                    Field::new("POS", DataType::U32),
                    Field::new("MPOS", DataType::U32),
                ]),
                vec![Column::U32(pos), Column::U32(mpos)],
            )
            .unwrap(),
        );
        catalog.register(
            "REF",
            Table::from_columns(
                Schema::new(vec![Field::new("POS", DataType::U32), Field::new("SEQ", DataType::ListU8)]),
                vec![
                    Column::U32(vec![0]),
                    Column::ListU8(vec![(0..48).map(|j| (j % 4) as u8).collect()]),
                ],
            )
            .unwrap(),
        );
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
        let catalog = pairs_catalog(&mask, &offsets);
        differential(POS_EXPLODE_JOIN_SQL, &catalog, "Joined", factor)?;
    }
}

/// The deterministic corner proptest shrinking tends to land on: an
/// entirely empty `READS` table must flow through explode, filter, and
/// grouped aggregate to an empty result on every engine.
#[test]
fn empty_reads_table_explodes_to_empty_coverage() {
    let catalog = reads_catalog(&[]);
    differential(COVERAGE_SQL, &catalog, "Coverage", 2).unwrap();
}
