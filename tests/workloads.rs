//! The two workloads opened by lowering the genomics operators through
//! the general compiler (ROADMAP "scenario diversity"):
//!
//! * **Per-position coverage/pileup** — a grouped aggregate over
//!   `ReadExplode` output: how many read bases align to each reference
//!   position.
//! * **Mate-distance histogram** — `PosExplode` of the reference joined
//!   against read positions, then `GROUP BY (MPOS - POS)`.
//!
//! Both are expressed purely in extended SQL, compiled node-by-node,
//! executed on the simulated device — directly, through `GenesisServer` on a device pool, and
//! sharded scatter-gather — and checked bit-for-bit against the
//! `genesis::sql` software oracle. Coverage is also run over a generated
//! multi-chromosome `Dataset` and checked against an independent CIGAR
//! walk ([`coverage_sw`]).

use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::sql::{Catalog, Script};
use genesis::types::table::reads_to_table;
use genesis::types::{
    Base, Chrom, Cigar, Column, DataType, Field, ReadRecord, ReferenceGenome, Schema, Table, Value,
};
use std::collections::HashMap;

/// Coverage/pileup: explode every read into per-base rows, then count
/// rows per reference position. The `WHERE POS < 4096` window drops the
/// insertion sentinel rows (`Ins` compares unordered to everything, in
/// both engines), which is also what lets the lowering prove the group
/// key non-nullable and bounded.
const COVERAGE_SQL: &str = "\
    CREATE TABLE Bases AS\n\
    ReadExplode (READS.POS, READS.CIGAR, READS.SEQ)\n\
    FROM READS\n\
    INSERT INTO Coverage\n\
    SELECT POS, COUNT(*)\n\
    FROM Bases\n\
    WHERE POS < 4096\n\
    GROUP BY POS\n\
    ORDER BY POS";

/// Mate-distance histogram: the reference row explodes into one row per
/// position (GenPairX-style paired-end analytics), reads join against it
/// on alignment position, and the insert-size `MPOS - POS` is binned.
const MATE_DISTANCE_SQL: &str = "\
    CREATE TABLE RefPos AS\n\
    PosExplode (REF.SEQ, REF.POS)\n\
    FROM REF\n\
    CREATE TABLE Joined AS\n\
    SELECT *\n\
    FROM PAIRS\n\
    INNER JOIN RefPos\n\
    ON PAIRS.POS = RefPos.POS\n\
    CREATE TABLE Dist AS\n\
    SELECT PAIRS.MPOS - PAIRS.POS AS D\n\
    FROM Joined\n\
    INSERT INTO MateHist\n\
    SELECT D, COUNT(*)\n\
    FROM Dist\n\
    GROUP BY D\n\
    ORDER BY D";

/// A selective filtered scan directly above `PAIRS` (`POS = i*3 + 1`
/// keeps `i < 20` of the 64 pairs): with pushdown the predicate is
/// absorbed into the scan, without it the same conjunct runs as a
/// lowered Filter module. Both must be bit-identical to the oracle.
const SELECTED_SQL: &str = "\
    INSERT INTO Selected\n\
    SELECT *\n\
    FROM PAIRS\n\
    WHERE POS < 61";

/// Mixed CIGAR shapes (clips, insertions, deletions, skips) with the
/// query length each consumes.
const CIGARS: [(&str, usize); 6] =
    [("8M", 8), ("4M1I3M", 8), ("2S6M", 8), ("3M2D5M", 8), ("5M3S", 8), ("1S4M1D2M1I1M", 9)];

/// A catalog with all three workload tables: `READS` (exploded for
/// coverage), `PAIRS` (positions + mate positions), and `REF` (one
/// reference row `PosExplode` expands).
fn catalog(reads: usize) -> Catalog {
    let bases = ['A', 'C', 'G', 'T'];
    let mut pos = Vec::new();
    let mut cigars = Vec::new();
    let mut seqs = Vec::new();
    let mut mpos = Vec::new();
    for i in 0..reads {
        let (cg, qlen) = CIGARS[i % CIGARS.len()];
        // Strictly increasing, unique positions: the mate-distance join
        // merge-joins sorted unique keys.
        let p = (i as u32) * 3 + 1;
        pos.push(p);
        cigars.push(cg.parse::<Cigar>().unwrap().pack().unwrap());
        seqs.push(
            (0..qlen)
                .map(|j| Base::try_from(bases[(i + j) % 4]).unwrap().code())
                .collect::<Vec<u8>>(),
        );
        mpos.push(p + 40 + (i as u32 % 16));
    }
    let reads_table = Table::from_columns(
        Schema::new(vec![
            Field::new("POS", DataType::U32),
            Field::new("CIGAR", DataType::ListU16),
            Field::new("SEQ", DataType::ListU8),
        ]),
        vec![Column::U32(pos.clone()), Column::ListU16(cigars), Column::ListU8(seqs)],
    )
    .unwrap();
    let pairs_table = Table::from_columns(
        Schema::new(vec![Field::new("POS", DataType::U32), Field::new("MPOS", DataType::U32)]),
        vec![Column::U32(pos), Column::U32(mpos)],
    )
    .unwrap();
    // One reference row starting at position 0, long enough to cover
    // every read start (the join then keeps every pair).
    let ref_len = reads * 3 + 16;
    let ref_table = Table::from_columns(
        Schema::new(vec![Field::new("POS", DataType::U32), Field::new("SEQ", DataType::ListU8)]),
        vec![
            Column::U32(vec![0]),
            Column::ListU8(vec![
                (0..ref_len).map(|j| Base::try_from(bases[j % 4]).unwrap().code()).collect(),
            ]),
        ],
    )
    .unwrap();
    let mut cat = Catalog::new();
    cat.register("READS", reads_table);
    cat.register("PAIRS", pairs_table);
    cat.register("REF", ref_table);
    cat
}

/// Runs `script` on the software engine and returns the `out` table.
fn oracle(script: &str, reads: usize, out: &str) -> Table {
    let mut cat = catalog(reads);
    Script::parse(script).unwrap().run(&mut cat).unwrap();
    cat.table(out).unwrap().clone()
}

fn assert_tables_equal(hw: &Table, sw: &Table, what: &str) {
    let hw_names: Vec<&str> = hw.schema().fields().iter().map(|f| f.name.as_str()).collect();
    let sw_names: Vec<&str> = sw.schema().fields().iter().map(|f| f.name.as_str()).collect();
    assert_eq!(hw_names, sw_names, "{what}: schema differs");
    assert_eq!(hw.num_rows(), sw.num_rows(), "{what}: row count differs");
    for r in 0..hw.num_rows() {
        assert_eq!(hw.row(r), sw.row(r), "{what}: row {r} differs");
    }
}

#[test]
fn coverage_pileup_compiles_generally_and_matches_oracle() {
    let cat = catalog(64);
    let compiled =
        Compiler::new(DeviceConfig::small()).compile_sql(COVERAGE_SQL, &cat).unwrap();
    // The measured profile carries the explode's expansion factor.
    assert!(
        compiled.profile().expansion > 1.0,
        "explode pipelines must declare expansion, got {}",
        compiled.profile().expansion
    );
    let sw = oracle(COVERAGE_SQL, 64, "Coverage");
    assert!(sw.num_rows() > 0, "oracle coverage must be non-trivial");
    for factor in [1, 3] {
        let (hw, _) = compiled.execute_replicated(&cat, factor).unwrap();
        assert_tables_equal(&hw, &sw, &format!("coverage @{factor}x"));
    }
}

#[test]
fn mate_distance_compiles_generally_and_matches_oracle() {
    let cat = catalog(48);
    let compiled =
        Compiler::new(DeviceConfig::small()).compile_sql(MATE_DISTANCE_SQL, &cat).unwrap();
    let sw = oracle(MATE_DISTANCE_SQL, 48, "MateHist");
    assert!(sw.num_rows() > 0, "oracle histogram must be non-trivial");
    // Every pair joins (the reference covers all read positions) and
    // distances span 16 bins by construction.
    assert_eq!(sw.num_rows(), 16);
    for factor in [1, 2] {
        let (hw, _) = compiled.execute_replicated(&cat, factor).unwrap();
        assert_tables_equal(&hw, &sw, &format!("mate-distance @{factor}x"));
    }
}

#[test]
fn coverage_counts_are_plausible_pileup_depths() {
    // Sanity beyond bit-equality: total counted bases = sum over reads of
    // aligned (M/=/X + D) positions below the window, and every count is
    // a positive pileup depth.
    let sw = oracle(COVERAGE_SQL, 64, "Coverage");
    let mut total = 0u64;
    for r in 0..sw.num_rows() {
        let Value::U64(c) = sw.row(r)[1] else { panic!("count must be U64") };
        assert!(c >= 1);
        total += c;
    }
    // Per CIGARS: reference-consuming ops per read cycle to
    // 8+7+6+10+5+8 = 44 positions per 6 reads.
    let expected: u64 = (0..64).map(|i| [8u64, 7, 6, 10, 5, 8][i % 6]).sum();
    assert_eq!(total, expected, "total pileup depth");
}

/// Both workloads served end-to-end through `GenesisServer`: registered
/// by name, compiled through the LRU cache, scheduled across a device
/// pool — unsharded and scatter-gather sharded must both be bit-identical
/// to the software oracle.
#[test]
fn workloads_serve_on_the_device_pool_including_sharded() {
    let cat = catalog(64);
    let sw_cov = oracle(COVERAGE_SQL, 64, "Coverage");
    let sw_mate = oracle(MATE_DISTANCE_SQL, 64, "MateHist");
    for shards in [1, 3] {
        let server = GenesisServer::new(
            ServerConfig::default()
                .with_devices(2, DeviceConfig::small())
                .with_shards(shards),
        );
        server.register_script("coverage_pileup", COVERAGE_SQL).unwrap();
        server.register_script("mate_distance", MATE_DISTANCE_SQL).unwrap();
        let cov = server.submit(Request::script("tenant-a", "coverage_pileup"), &cat).unwrap();
        let mate = server.submit(Request::script("tenant-b", "mate_distance"), &cat).unwrap();
        let (cov_out, _) = cov.wait().unwrap();
        let (mate_out, _) = mate.wait().unwrap();
        assert_tables_equal(&cov_out, &sw_cov, &format!("served coverage, {shards} shard(s)"));
        assert_tables_equal(&mate_out, &sw_mate, &format!("served mate-dist, {shards} shard(s)"));
    }
}

/// The selective filtered scan served with pushdown on and off, sharded
/// and unsharded: bit-identical outputs, and the pushed run's
/// `server.scan.*` counters show exactly which rows were dropped at the
/// scan — summed precisely across shards by the survivor-attribution in
/// `PreparedScan::scanned_rows`.
#[test]
fn served_pushdown_is_bit_identical_and_counts_scanned_rows() {
    let cat = catalog(64);
    let sw = oracle(SELECTED_SQL, 64, "Selected");
    assert_eq!(sw.num_rows(), 20, "oracle must keep 20 of 64 pairs");
    for shards in [1, 3] {
        for pushdown in [true, false] {
            let server = GenesisServer::new(
                ServerConfig::default()
                    .with_devices(2, DeviceConfig::small().with_pushdown(pushdown))
                    .with_shards(shards),
            );
            server.register_script("selected", SELECTED_SQL).unwrap();
            let (out, _) =
                server.submit(Request::script("tenant-a", "selected"), &cat).unwrap().wait().unwrap();
            let what = format!("served selected scan, {shards} shard(s), pushdown={pushdown}");
            assert_tables_equal(&out, &sw, &what);
            let counters = server.metrics_snapshot().counters;
            assert_eq!(counters.get("server.scan.rows_scanned"), Some(&64), "{what}");
            // With pushdown the scan itself drops the 44 non-matching
            // pairs; without it every scanned row is emitted into the
            // pipeline and the lowered Filter module drops them later.
            let emitted = if pushdown { 20 } else { 64 };
            assert_eq!(counters.get("server.scan.rows_emitted"), Some(&emitted), "{what}");
        }
    }
}

/// Software oracle for the generated data set: depth of coverage per
/// position (aligned + deleted read positions), from a direct CIGAR walk
/// that shares no code with `ReadExplode` or the SQL engine.
fn coverage_sw(reads: &[ReadRecord], genome: &ReferenceGenome) -> HashMap<Chrom, Vec<u32>> {
    let mut depth: HashMap<Chrom, Vec<u32>> =
        genome.iter().map(|c| (c.chrom, vec![0u32; c.len()])).collect();
    for r in reads {
        if r.flags.is_unmapped() {
            continue;
        }
        let Some(lane) = depth.get_mut(&r.chr) else { continue };
        let mut pos = r.pos as usize;
        for e in r.cigar.iter() {
            if e.op.consumes_ref() {
                for _ in 0..e.len {
                    if pos < lane.len() {
                        lane[pos] += 1;
                    }
                    pos += 1;
                }
            }
        }
    }
    depth
}

#[test]
fn mean_depth_is_plausible() {
    let cfg = DatagenConfig::tiny();
    let dataset = Dataset::generate(&cfg);
    let oracle = coverage_sw(&dataset.reads, &dataset.genome);
    let total: u64 = oracle.values().flatten().map(|&d| u64::from(d)).sum();
    let genome_len: u64 = dataset.genome.total_bases();
    let mean = total as f64 / genome_len as f64;
    let expected = cfg.num_reads as f64 * f64::from(cfg.read_len) / genome_len as f64;
    assert!((mean - expected).abs() / expected < 0.15, "mean {mean} vs {expected}");
}

/// Coverage of a generated multi-chromosome data set (indels, soft clips)
/// on the compiled road: one coordinate-sorted `READS` table and one
/// pileup request per chromosome, through a 2-device server. `psize` is
/// smaller than a chromosome and at 3 shards every cut falls inside one,
/// between reads that overlap it — the gather must add their depths up.
#[test]
fn dataset_coverage_through_the_compiled_road() {
    let dataset = Dataset::generate(&DatagenConfig::tiny());
    let oracle = coverage_sw(&dataset.reads, &dataset.genome);
    assert_eq!(oracle.len(), 2);
    for shards in [1, 3] {
        let server = GenesisServer::new(
            ServerConfig::default()
                .with_devices(2, DeviceConfig::small().with_psize(5_000))
                .with_shards(shards),
        );
        for (chrom, lane) in &oracle {
            let mut reads: Vec<ReadRecord> =
                dataset.reads.iter().filter(|r| r.chr == *chrom).cloned().collect();
            reads.sort_by_key(|r| r.pos);
            let mut cat = Catalog::new();
            cat.register("READS", reads_to_table(&reads).unwrap());
            let name = format!("pileup-{chrom}");
            let pileup = COVERAGE_SQL.replace("4096", &lane.len().to_string());
            server.register_script(name.as_str(), &pileup).unwrap();
            let (table, stats) =
                server.submit(Request::script("tenant-a", name), &cat).unwrap().wait().unwrap();
            let mut depth = vec![0u32; lane.len()];
            for r in 0..table.num_rows() {
                let [Value::U64(pos), Value::U64(count)] = table.row(r)[..] else {
                    panic!("coverage rows are (POS, COUNT)")
                };
                depth[usize::try_from(pos).unwrap()] = u32::try_from(count).unwrap();
            }
            assert_eq!(&depth, lane, "{chrom} depth diverged at {shards} shard(s)");
            assert!(stats.cycles > 0);
        }
        if shards > 1 {
            let dispatched = server.metrics_snapshot().counters["server.shards.dispatched"];
            assert_eq!(dispatched, (shards * oracle.len()) as u64, "every request is cut");
        }
    }
}
