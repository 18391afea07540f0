//! Genomics-workload benchmark (`cargo bench --bench workloads`).
//!
//! The two workloads opened by lowering the explode operators through the
//! general compiler — per-position coverage/pileup (grouped aggregate
//! over `ReadExplode`) and mate-distance histograms (`PosExplode` + join)
//! — compiled from extended SQL and run at the cost-model-chosen
//! replication factor. Median-of-three wall clock; simulated flits/sec is
//! the tracked throughput metric. Snapshotted to `BENCH_workloads.json`
//! at the repository root and gated by `tools/perf_gate.sh`.

use genesis_core::compile::Compiler;
use genesis_core::device::DeviceConfig;
use genesis_sql::Catalog;
use genesis_types::{Cigar, Column, DataType, Field, Schema, Table};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

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

/// A ~10%-selective filtered scan: `POS = i*3 + 1` keeps rows `i < 800`
/// of the 8 000 pairs. With pushdown the predicate is absorbed into the
/// scan (surviving rows only reach the device and the replication
/// chooser caps the factor at the selectivity); without it the same
/// conjunct runs as a hardware Filter module over the full stream.
const PUSHDOWN_SQL: &str = "\
    INSERT INTO Selected\n\
    SELECT *\n\
    FROM PAIRS\n\
    WHERE POS < 2400";

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

/// Mixed CIGAR shapes with the query length each consumes.
const CIGARS: [(&str, usize); 6] =
    [("8M", 8), ("4M1I3M", 8), ("2S6M", 8), ("3M2D5M", 8), ("5M3S", 8), ("1S4M1D2M1I1M", 9)];

/// `READS` (ascending positions inside the coverage window), `PAIRS`
/// (strictly ascending unique positions), and a single covering `REF`
/// row.
fn catalog(reads: usize, pairs: usize) -> Catalog {
    let mut pos = Vec::new();
    let mut cigars = Vec::new();
    let mut seqs = Vec::new();
    for i in 0..reads {
        let (cg, qlen) = CIGARS[i % CIGARS.len()];
        pos.push((i as u32) * 3 + 1);
        cigars.push(cg.parse::<Cigar>().unwrap().pack().unwrap());
        seqs.push((0..qlen).map(|j| ((i + j) % 4) as u8).collect::<Vec<u8>>());
    }
    let reads_table = Table::from_columns(
        Schema::new(vec![
            Field::new("POS", DataType::U32),
            Field::new("CIGAR", DataType::ListU16),
            Field::new("SEQ", DataType::ListU8),
        ]),
        vec![Column::U32(pos), Column::ListU16(cigars), Column::ListU8(seqs)],
    )
    .unwrap();
    let ppos: Vec<u32> = (0..pairs).map(|i| (i as u32) * 3 + 1).collect();
    let mpos: Vec<u32> = ppos.iter().enumerate().map(|(i, &p)| p + 40 + (i as u32 % 16)).collect();
    let pairs_table = Table::from_columns(
        Schema::new(vec![Field::new("POS", DataType::U32), Field::new("MPOS", DataType::U32)]),
        vec![Column::U32(ppos), Column::U32(mpos)],
    )
    .unwrap();
    let ref_len = pairs * 3 + 64;
    let ref_table = Table::from_columns(
        Schema::new(vec![Field::new("POS", DataType::U32), Field::new("SEQ", DataType::ListU8)]),
        vec![
            Column::U32(vec![0]),
            Column::ListU8(vec![(0..ref_len).map(|j| (j % 4) as u8).collect()]),
        ],
    )
    .unwrap();
    let mut cat = Catalog::new();
    cat.register("READS", reads_table);
    cat.register("PAIRS", pairs_table);
    cat.register("REF", ref_table);
    cat
}

struct Sample {
    label: &'static str,
    chosen_factor: usize,
    wall: Duration,
    sim_cycles: u64,
    total_flits: u64,
    out_rows: usize,
}

impl Sample {
    fn mflits_per_sec(&self) -> f64 {
        self.total_flits as f64 / self.wall.as_secs_f64() / 1e6
    }
}

/// Compiles `script` on `cfg` and times
/// execution at the cost-model-chosen replication factor (median of
/// three).
fn run_workload(label: &'static str, script: &str, catalog: &Catalog, cfg: DeviceConfig) -> Sample {
    let compiled = Compiler::new(cfg)
        .compile_sql(script, catalog)
        .expect("workload must compile");
    let factor = compiled.replication().factor;
    let mut runs: Vec<(Duration, genesis_core::perf::AccelStats, usize)> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let (out, stats) =
                compiled.execute_replicated(catalog, factor).expect("workload run");
            (start.elapsed(), stats, out.num_rows())
        })
        .collect();
    runs.sort_by_key(|(wall, _, _)| *wall);
    let (wall, stats, out_rows) = runs.swap_remove(runs.len() / 2);
    Sample {
        label,
        chosen_factor: factor,
        wall,
        sim_cycles: stats.cycles,
        total_flits: stats.total_flits,
        out_rows,
    }
}

fn main() {
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    // ~1.3k reads keep every exploded position inside the 4096 coverage
    // window; 8k pairs explode a ~24 kbp reference on the join side.
    let cat = catalog(1_300, 8_000);
    println!("workloads — genomics shapes through the general compiler\n");

    let samples = [
        run_workload("coverage_pileup", COVERAGE_SQL, &cat, DeviceConfig::default()),
        run_workload("mate_distance", MATE_DISTANCE_SQL, &cat, DeviceConfig::default()),
        run_workload("pushdown_on", PUSHDOWN_SQL, &cat, DeviceConfig::default()),
        run_workload(
            "pushdown_off",
            PUSHDOWN_SQL,
            &cat,
            DeviceConfig::default().with_pushdown(false),
        ),
    ];
    let (on, off) = (&samples[2], &samples[3]);
    assert_eq!(on.out_rows, off.out_rows, "pushdown must not change the result");
    assert!(
        on.chosen_factor < off.chosen_factor,
        "a ~10%-selective pushed scan must choose strictly fewer replicas \
         (on {}x vs off {}x)",
        on.chosen_factor,
        off.chosen_factor
    );
    for s in &samples {
        println!(
            "  {:<18} {:>2}x {:>9} cycles {:>9} flits {:>6} rows {:>8.1} ms  {:>8.2} Mflit/s",
            s.label,
            s.chosen_factor,
            s.sim_cycles,
            s.total_flits,
            s.out_rows,
            s.wall.as_secs_f64() * 1e3,
            s.mflits_per_sec()
        );
    }

    let mut json = String::from("{\n  \"bench\": \"workloads\",\n  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"label\": \"{}\", \"chosen_factor\": {}, \"wall_ms\": {:.1}, \
             \"sim_cycles\": {}, \"total_flits\": {}, \"out_rows\": {}, \
             \"mflits_per_sec\": {:.2}}}",
            s.label,
            s.chosen_factor,
            s.wall.as_secs_f64() * 1e3,
            s.sim_cycles,
            s.total_flits,
            s.out_rows,
            s.mflits_per_sec()
        );
        json.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    let out = repo_root.join("BENCH_workloads.json");
    std::fs::write(&out, &json).expect("write BENCH_workloads.json");
    println!("\nsnapshot written to {}", out.display());
}
