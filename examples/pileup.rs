//! Per-position pileup and mate-distance histograms, from SQL to the
//! simulated device through the general compiler — no hand-built
//! accelerator (contrast with `examples/coverage.rs`, which assembles
//! the module graph by hand).
//!
//! `ReadExplode` and `PosExplode` are library modules
//! (`genesis::core::library::ModuleRegistry`), so the compiler places
//! them like any relational node and sizes replication from the
//! post-explode flit rate.
//!
//! Run with: `cargo run --release --example pileup`

use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::sql::{Catalog, Script};
use genesis::types::{Cigar, Column, DataType, Field, Schema, Table};

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

/// Synthetic coordinate-sorted reads with mixed CIGARs, paired
/// positions, and one covering reference row.
fn catalog(reads: usize) -> Catalog {
    let cigars: [(&str, usize); 4] = [("8M", 8), ("4M1I3M", 8), ("2S6M", 8), ("3M2D5M", 8)];
    let mut pos = Vec::new();
    let mut packed = Vec::new();
    let mut seqs = Vec::new();
    let mut mpos = Vec::new();
    for i in 0..reads {
        let (cg, qlen) = cigars[i % cigars.len()];
        let p = (i as u32) * 3 + 1;
        pos.push(p);
        packed.push(cg.parse::<Cigar>().unwrap().pack().unwrap());
        seqs.push((0..qlen).map(|j| ((i + j) % 4) as u8).collect::<Vec<u8>>());
        mpos.push(p + 40 + (i as u32 % 16));
    }
    let mut cat = Catalog::new();
    cat.register(
        "READS",
        Table::from_columns(
            Schema::new(vec![
                Field::new("POS", DataType::U32),
                Field::new("CIGAR", DataType::ListU16),
                Field::new("SEQ", DataType::ListU8),
            ]),
            vec![Column::U32(pos.clone()), Column::ListU16(packed), Column::ListU8(seqs)],
        )
        .unwrap(),
    );
    cat.register(
        "PAIRS",
        Table::from_columns(
            Schema::new(vec![Field::new("POS", DataType::U32), Field::new("MPOS", DataType::U32)]),
            vec![Column::U32(pos), Column::U32(mpos)],
        )
        .unwrap(),
    );
    let ref_len = reads * 3 + 64;
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

fn run(
    name: &str,
    script: &str,
    cat: &Catalog,
    compiler: &Compiler,
    out: &str,
    preview: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("--- {name} ---\n{script}\n");
    let compiled = compiler.compile_sql(script, cat)?;
    println!("{}", compiled.explain());
    let (hw, stats) = compiled.execute(cat)?;

    // Software oracle: the same script on the SQL engine.
    let mut sw_cat = cat.clone_tables();
    Script::parse(script)?.run(&mut sw_cat)?;
    let sw = sw_cat.table(out).expect("oracle output");
    assert_eq!(hw.num_rows(), sw.num_rows());
    for r in 0..hw.num_rows() {
        assert_eq!(hw.row(r), sw.row(r), "row {r}");
    }

    println!("{} rows (first {preview}):", hw.num_rows());
    for r in 0..hw.num_rows().min(preview) {
        println!("  {:?}", hw.row(r));
    }
    println!(
        "simulated cycles: {}, flits: {} — matches the software oracle ✓\n",
        stats.cycles, stats.total_flits
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cat = catalog(256);
    let compiler = Compiler::new(DeviceConfig::from_env()?);
    run("per-position coverage (pileup depth)", COVERAGE_SQL, &cat, &compiler, "Coverage", 8)?;
    run("mate-distance histogram", MATE_DISTANCE_SQL, &cat, &compiler, "MateHist", 16)?;
    Ok(())
}
