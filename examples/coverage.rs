//! Extending Genesis beyond the paper's three stages (§IV-E): per-position
//! depth of coverage over a generated multi-chromosome data set, written
//! as the pileup query and served from SQL through the general compiler.
//! The host overlaps its own work with the accelerator run the way the
//! paper's non-blocking host API (§III-E) intends: `submit` returns at
//! once, `Ticket::is_done` polls, `Ticket::wait` collects.
//!
//! Run with: `cargo run --release --example coverage`

use genesis::core::{DeviceConfig, GenesisServer, Request, ServerConfig, TierConfig};
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::sql::{Catalog, Script};
use genesis::types::table::reads_to_table;
use genesis::types::{ReadRecord, Value};

/// Explode every read into per-base rows and count rows per reference
/// position; the window drops the insertion sentinel rows and bounds the
/// group key by the chromosome length.
fn pileup_sql(chrom_len: usize) -> String {
    format!(
        "CREATE TABLE Bases AS\n\
         ReadExplode (READS.POS, READS.CIGAR, READS.SEQ)\n\
         FROM READS\n\
         INSERT INTO Coverage\n\
         SELECT POS, COUNT(*)\n\
         FROM Bases\n\
         WHERE POS < {chrom_len}\n\
         GROUP BY POS\n\
         ORDER BY POS"
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = DatagenConfig::small();
    let dataset = Dataset::generate(&cfg);
    println!("{} reads over {} bp of reference", dataset.reads.len(), dataset.genome.total_bases());

    // A 200 kbp chromosome is a 200 k-key per-position histogram, past the
    // 2^16-key on-chip scratchpad budget: the compiler refuses it without
    // tiered memory, so when `GENESIS_TIERS` sets none the default tiers
    // are filled in and the histogram pages.
    let mut device = DeviceConfig::from_env()?;
    if device.tiers.is_none() {
        device = device.with_tiers(TierConfig::default());
    }
    let server = GenesisServer::new(ServerConfig::default().with_devices(1, device));

    // One coordinate-sorted READS table and one request per chromosome;
    // `submit` binds the columns (the DMA-in) and returns without blocking.
    let mut jobs = Vec::new();
    for chromosome in dataset.genome.iter() {
        let mut reads: Vec<ReadRecord> =
            dataset.reads.iter().filter(|r| r.chr == chromosome.chrom).cloned().collect();
        reads.sort_by_key(|r| r.pos);
        let mut catalog = Catalog::new();
        catalog.register("READS", reads_to_table(&reads)?);
        let name = format!("pileup-{}", chromosome.chrom);
        let sql = pileup_sql(chromosome.len());
        server.register_script(name.as_str(), &sql)?;
        let ticket = server.submit(Request::script("coverage", name), &catalog)?;
        jobs.push((chromosome.chrom, sql, catalog, ticket));
    }

    // Host does useful work while the accelerator runs: the same script on
    // the software engine is the oracle.
    let done = jobs.iter().all(|(_, _, _, ticket)| ticket.is_done());
    println!("accelerator launched (is_done = {done})");
    for (_, sql, catalog, _) in &mut jobs {
        Script::parse(sql)?.run(catalog)?;
    }
    println!("host finished its own work; waiting on the accelerator ...");

    // Verify and summarize.
    let chromosomes = jobs.len();
    let mut cycles = 0u64;
    let mut max_depth = 0u64;
    let mut covered = 0u64;
    for (chrom, _, catalog, ticket) in jobs {
        let (hw, stats) = ticket.wait()?;
        cycles += stats.cycles;
        let sw = catalog.table("Coverage").expect("the script inserts into Coverage");
        assert_eq!(hw.num_rows(), sw.num_rows(), "{chrom} covered positions differ");
        for r in 0..hw.num_rows() {
            let row = hw.row(r);
            assert_eq!(row, sw.row(r), "{chrom} depth mismatch at row {r}");
            let Value::U64(depth) = row[1] else { panic!("COUNT(*) is an integer") };
            max_depth = max_depth.max(depth);
        }
        covered += hw.num_rows() as u64;
    }
    println!("accelerator done: {cycles} cycles simulated");
    let total = dataset.genome.total_bases();
    println!("\ncoverage identical to software oracle across {chromosomes} chromosomes ✓");
    println!(
        "breadth of coverage: {:.1}%   max depth: {max_depth}x   mean depth: {:.1}x",
        100.0 * covered as f64 / total as f64,
        dataset.reads.len() as f64 * f64::from(cfg.read_len) / total as f64
    );
    Ok(())
}
