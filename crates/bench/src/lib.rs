//! # genesis-bench
//!
//! The benchmark harness: one binary per paper figure/table (DESIGN.md §4)
//! plus the snapshot benches that write `BENCH_*.json`, sharing data-set
//! scales, scenarios and reporting helpers from this library — and
//! [`run`], the `genesis` script runner.
//!
//! Scale selection: set `GENESIS_SCALE` to `tiny`, `small`, `medium`
//! (default) or `large`. All harness binaries honor it; any other value
//! stops them with exit code 2.

#![warn(missing_docs)]

pub mod load;
pub mod scenarios;
pub mod snapshot;

use genesis_core::accel::bqsr::{accelerated_bqsr_table, BqsrAccel};
use genesis_core::accel::markdup::{accelerated_mark_duplicates, QualitySumAccel};
use genesis_core::accel::metadata::{accelerated_metadata_update, MetadataAccel};
use genesis_core::compile::Compiler;
use genesis_core::device::DeviceConfig;
use genesis_core::env::{suggest, GenesisEnv};
use genesis_core::perf::{AccelStats, Breakdown};
use genesis_core::serve::{GenesisServer, Request, ServerConfig};
use genesis_datagen::{DatagenConfig, Dataset};
use genesis_gatk::bqsr::build_covariate_table;
use genesis_gatk::markdup::mark_duplicates;
use genesis_gatk::metadata::set_nm_md_uq_tags;
use genesis_hw::resource::{VU9P_BRAM_BYTES, VU9P_LUTS, VU9P_REGISTERS};
use genesis_sql::ast::Statement;
use genesis_sql::{Catalog, Script};
use genesis_types::Table;
use std::error::Error;
use std::time::{Duration, Instant};

/// Measures `f` three times and returns the minimum — robust against
/// scheduler noise on shared machines.
fn best_of_3<R>(mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best: Option<(Duration, R)> = None;
    for _ in 0..3 {
        let t = Instant::now();
        let r = f();
        let d = t.elapsed();
        match &best {
            Some((b, _)) if *b <= d => {}
            _ => best = Some((d, r)),
        }
    }
    best.expect("three runs happened")
}

/// The generated data-set scales, smallest first: what `GENESIS_SCALE`
/// and the `genesis` runner's data-set argument accept.
const SCALES: [&str; 4] = ["tiny", "small", "medium", "large"];

/// The data-set configuration a scale names, or `None` for a name outside
/// [`SCALES`].
fn scale(name: &str) -> Option<DatagenConfig> {
    let genome = |num_chromosomes, chrom_len, num_reads| DatagenConfig {
        num_chromosomes,
        chrom_len,
        num_reads,
        ..DatagenConfig::default()
    };
    match name {
        "tiny" => Some(DatagenConfig::tiny()),
        "small" => Some(DatagenConfig::small()),
        "medium" => Some(genome(4, 1_000_000, 100_000)),
        "large" => Some(genome(4, 2_000_000, 200_000)),
        _ => None,
    }
}

/// The scale `GENESIS_SCALE` names (`tiny`, `small`, `medium` or `large`),
/// `medium` when it is unset — the one place the harness reads it. Any
/// other value prints the accepted names and exits 2.
#[must_use]
pub fn env_scale() -> &'static str {
    let name = match std::env::var("GENESIS_SCALE") {
        Err(std::env::VarError::NotPresent) => return "medium",
        other => other.unwrap_or_default(),
    };
    SCALES.into_iter().find(|s| *s == name).unwrap_or_else(|| {
        eprintln!("error: GENESIS_SCALE={name:?} is not one of {}", SCALES.join(", "));
        std::process::exit(2);
    })
}

/// The experiment data-set configuration of [`env_scale`].
#[must_use]
pub fn scale_config() -> DatagenConfig {
    scale(env_scale()).expect("every name in SCALES resolves")
}

/// The harness's base device: the F1-like defaults plus whatever the
/// `GENESIS_*` environment asks for. A malformed variable prints the error
/// and the knob reference, then exits non-zero.
#[must_use]
pub fn env_device() -> DeviceConfig {
    DeviceConfig::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{}", GenesisEnv::help());
        std::process::exit(2);
    })
}

/// How many result rows [`run`] prints.
const PREVIEW_ROWS: usize = 8;

/// Runs the extended-SQL `script` on every catalog of the data set named
/// `data` and returns what the `genesis` binary prints on stdout.
///
/// `data` is `genomics` ([`scenarios::genomics_catalog`]) or a scale
/// [`env_scale`] accepts, generated and cut by [`scenarios::figure4_partitions`] into
/// one catalog per (chromosome, `psize`-window) at the device's `psize`.
/// The script is compiled once against the first catalog and submitted for
/// every catalog to a [`GenesisServer`] built from `cfg`; while the tickets
/// are in flight the SQL engine runs the same script on each catalog. The
/// text holds the explain, the row count, the first rows and a footer on
/// the modeled clock only (simulated cycles and the pool's modeled
/// makespan), so it is the same on every run.
///
/// # Errors
///
/// An unknown data set, a script the SQL engine or the compiler rejects
/// (a parse error, an unknown table), a failed run, or a result table that
/// differs from the SQL engine's on any catalog.
pub fn run(script: &str, data: &str, cfg: ServerConfig) -> Result<String, Box<dyn Error>> {
    let sql = Script::parse(script)?;
    let target = insert_target(sql.statements()).ok_or("the script has no INSERT INTO")?;
    let catalogs = data_set(data, cfg.device.psize)?;
    let first = catalogs.first().ok_or_else(|| format!("data set `{data}` has no catalog"))?;
    let plan = Compiler::new(cfg.device.clone()).compile_sql(script, first)?;
    let mut out = plan.explain();

    let server = GenesisServer::new(cfg.start_paused());
    let tickets = catalogs
        .iter()
        .map(|cat| server.submit(Request::precompiled("genesis", plan.clone()), cat))
        .collect::<Result<Vec<_>, _>>()?;
    server.resume();
    let mut expected = Vec::new();
    for mut cat in catalogs {
        sql.run(&mut cat)?;
        let table = cat.remove(target).ok_or_else(|| format!("the SQL engine wrote no {target}"))?;
        expected.push(table);
    }

    let (mut rows, mut cycles, mut preview) = (0, 0, Vec::new());
    for (i, (ticket, want)) in tickets.into_iter().zip(&expected).enumerate() {
        let (got, stats) = ticket.wait()?;
        if let Some(diff) = difference(&got, want) {
            return Err(format!("catalog {i}: hardware and SQL engine differ: {diff}").into());
        }
        preview.extend((0..got.num_rows()).take(PREVIEW_ROWS - preview.len()).map(|r| got.row(r)));
        rows += got.num_rows();
        cycles += stats.cycles;
    }
    out += &format!(
        "\n{target}: {rows} rows from {} catalog(s), identical to the SQL engine\n",
        expected.len()
    );
    let line = |cells: Vec<String>| {
        cells.iter().map(|c| format!("{c:>12}")).collect::<Vec<_>>().join(" ") + "\n"
    };
    out += &line(expected[0].schema().fields().iter().map(|f| f.name.clone()).collect());
    for row in &preview {
        out += &line(row.iter().map(ToString::to_string).collect());
    }
    let makespan = server.modeled_device_time().into_iter().max().unwrap_or_default();
    out += &format!(
        "\nmodeled: {cycles} cycles simulated, {} device time on {} device(s)\n",
        fmt_dur(makespan),
        server.devices()
    );
    Ok(out)
}

/// The table a script's last `INSERT INTO` writes — the one the compiler
/// compiles.
fn insert_target(stmts: &[Statement]) -> Option<&str> {
    stmts.iter().rev().find_map(|stmt| match stmt {
        Statement::Insert { name, .. } => Some(name.as_str()),
        Statement::ForLoop { body, .. } => insert_target(body),
        _ => None,
    })
}

/// The catalogs of the data set `name` (see [`run`]).
fn data_set(name: &str, psize: u32) -> Result<Vec<Catalog>, String> {
    if name == "genomics" {
        return Ok(vec![scenarios::genomics_catalog()]);
    }
    let Some(cfg) = scale(name) else {
        let names: Vec<&str> = std::iter::once("genomics").chain(SCALES).collect();
        let hint = suggest(name, names.iter().copied())
            .map_or_else(String::new, |s| format!(" (did you mean `{s}`?)"));
        let names = names.join(", ");
        return Err(format!("unknown data set `{name}`{hint}; expected one of {names}"));
    };
    let dataset = Dataset::generate(&cfg);
    Ok(scenarios::figure4_partitions(&dataset, psize).into_iter().map(|(_, cat)| cat).collect())
}

/// The first way `got` differs from `want`, if any: column names, row
/// count, then the first differing row.
fn difference(got: &Table, want: &Table) -> Option<String> {
    let names = |t: &Table| t.schema().fields().iter().map(|f| f.name.clone()).collect::<Vec<_>>();
    if names(got) != names(want) {
        return Some(format!("columns {:?} vs {:?}", names(got), names(want)));
    }
    if got.num_rows() != want.num_rows() {
        return Some(format!("{} rows vs {}", got.num_rows(), want.num_rows()));
    }
    (0..got.num_rows()).find(|&r| got.row(r) != want.row(r)).map(|r| {
        format!("row {r}: {:?} vs {:?}", got.row(r), want.row(r))
    })
}

/// The paper's device configurations per stage (§V-A: 16×/16×/8×
/// pipelines). Partition windows are scaled down from the paper's 1 Mbp in
/// proportion to our scaled-down genome, so the number of partitions stays
/// well above the pipeline count and the replicated pipelines actually
/// fill — the same partitions ≫ pipelines regime the paper's 3 Gbp / 1 Mbp
/// configuration operates in (see EXPERIMENTS.md).
#[must_use]
pub fn device_for(stage: Stage) -> DeviceConfig {
    match stage {
        Stage::MarkDuplicates => env_device().with_pipelines(16),
        Stage::MetadataUpdate => env_device().with_pipelines(16).with_psize(125_000),
        Stage::BqsrTable => env_device().with_pipelines(8).with_psize(125_000),
    }
}

/// The three accelerated stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// §IV-B.
    MarkDuplicates,
    /// §IV-C.
    MetadataUpdate,
    /// §IV-D (covariate table construction).
    BqsrTable,
}

impl Stage {
    /// Paper row label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stage::MarkDuplicates => "Mark Duplicates",
            Stage::MetadataUpdate => "Metadata Update",
            Stage::BqsrTable => "BQSR (Table Construction)",
        }
    }
}

/// Measured comparison of one stage: software baseline vs Genesis.
#[derive(Debug, Clone)]
pub struct StageComparison {
    /// Which stage.
    pub stage: Stage,
    /// Single-thread software baseline time.
    pub baseline: Duration,
    /// Accelerated-stage breakdown.
    pub breakdown: Breakdown,
    /// Accelerator statistics.
    pub stats: AccelStats,
}

impl StageComparison {
    /// Speedup over the single-thread baseline.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.breakdown.speedup_over(self.baseline)
    }
}

/// Measures all three stages on (a copy of) the data set. The input reads
/// are preprocessed in stage order (markdup output feeds metadata, etc.),
/// matching the paper's per-stage measurement points.
///
/// # Panics
///
/// Panics on simulation failure (the harness treats that as fatal).
#[must_use]
pub fn measure_stages(dataset: &Dataset) -> Vec<StageComparison> {
    // Before any measurement, so a malformed knob stops the run at once.
    let [markdup_dev, metadata_dev, bqsr_dev] =
        [Stage::MarkDuplicates, Stage::MetadataUpdate, Stage::BqsrTable].map(device_for);
    let mut out = Vec::new();

    // --- Mark Duplicates ---
    let mut sw = dataset.reads.clone();
    let (base_md, sw_report) = best_of_3(|| {
        sw = dataset.reads.clone();
        mark_duplicates(&mut sw)
    });
    let mut hw = dataset.reads.clone();
    let md = accelerated_mark_duplicates(&mut hw, &markdup_dev).expect("markdup accel");
    assert_eq!(md.report, sw_report, "markdup outputs must agree");
    out.push(StageComparison {
        stage: Stage::MarkDuplicates,
        baseline: base_md,
        breakdown: md.breakdown,
        stats: md.stats,
    });

    // --- Metadata Update (on the sorted, duplicate-marked reads) ---
    let mut sw_meta = sw.clone();
    let (base_meta, _) = best_of_3(|| {
        sw_meta = sw.clone();
        set_nm_md_uq_tags(&mut sw_meta, &dataset.genome).expect("sw metadata")
    });
    let mut hw_meta = sw.clone();
    let meta = accelerated_metadata_update(&mut hw_meta, &dataset.genome, &metadata_dev)
        .expect("metadata accel");
    out.push(StageComparison {
        stage: Stage::MetadataUpdate,
        baseline: base_meta,
        breakdown: meta.breakdown,
        stats: meta.stats,
    });

    // --- BQSR covariate table construction ---
    let (base_bqsr, sw_table) = best_of_3(|| {
        build_covariate_table(
            &sw_meta,
            &dataset.genome,
            dataset.config.read_groups,
            dataset.config.read_len,
        )
    });
    let bq = accelerated_bqsr_table(
        &sw_meta,
        &dataset.genome,
        dataset.config.read_groups,
        dataset.config.read_len,
        &bqsr_dev,
    )
    .expect("bqsr accel");
    assert_eq!(bq.table, sw_table, "covariate tables must agree");
    out.push(StageComparison {
        stage: Stage::BqsrTable,
        baseline: base_bqsr,
        breakdown: bq.breakdown,
        stats: bq.stats,
    });
    out
}

/// Table IV: FPGA resource usage of the three accelerators on the VU9P,
/// from the analytical resource model (DESIGN.md §2) — the text of
/// `results/table4_resources.txt`.
///
/// # Panics
///
/// Panics if the BQSR design no longer fits the VU9P.
#[must_use]
pub fn table4_resources() -> String {
    // Table IV documents the full-scale deployment: the paper's pipeline
    // counts with 1 Mbp partition windows (BQSR uses a smaller window —
    // its four count buffers per pipeline compete for BRAM).
    let markdup_cfg = DeviceConfig::default().with_pipelines(16);
    let metadata_cfg = DeviceConfig::default().with_pipelines(16).with_psize(1_000_000);
    let bqsr_cfg = DeviceConfig::default().with_pipelines(8).with_psize(250_000);
    let bqsr = BqsrAccel::new(bqsr_cfg.clone(), 151).resource_report();
    assert!(bqsr.fits(), "BQSR design must fit the VU9P");
    format!(
        "Table IV — FPGA resource usage of Genesis (analytical model):\n\n\
         device: Xilinx Virtex UltraScale+ VU9P — {VU9P_LUTS} LUTs, {VU9P_REGISTERS} registers, \
         {:.2} MB BRAM\n\n\
         Mark Duplicates ({}x pipelines):\n{}\n\n\
         \x20 paper: 228K LUTs (25.4%), 272K regs (15.2%), 0.34MB BRAM (4.6%)\n\n\
         Metadata Update ({}x pipelines, {} bp partitions):\n{}\n\n\
         \x20 paper: 333K LUTs (37.2%), 424K regs (23.7%), 4.95MB BRAM (65.5%)\n\n\
         Base Quality Score Recalibration ({}x pipelines, {} bp partitions):\n{bqsr}\n\n\
         \x20 paper: 502K LUTs (56.1%), 257K regs (14.4%), 1.69MB BRAM (22.4%)\n\n\
         all three designs fit the VU9P with headroom — the paper's\n\
         under-utilization observation enabling multi-accelerator placement (§V-B).\n",
        VU9P_BRAM_BYTES as f64 / 1e6,
        markdup_cfg.pipelines,
        QualitySumAccel::new(markdup_cfg.clone()).resource_report(),
        metadata_cfg.pipelines,
        metadata_cfg.psize,
        MetadataAccel::new(metadata_cfg.clone()).resource_report(),
        bqsr_cfg.pipelines,
        bqsr_cfg.psize,
    )
}

/// Formats a duration in engineering style.
#[must_use]
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.0} µs", s * 1e6)
    }
}

/// Prints a simple aligned table: header row then rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(headers.iter().map(|s| (*s).to_owned()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Prints a horizontal percentage bar of labeled fractions.
pub fn print_fraction_bar(title: &str, fractions: &[(&str, f64)]) {
    println!("  {title}");
    for (label, f) in fractions {
        let width = (f * 50.0).round() as usize;
        println!("    {label:<38} {:>5.1}% |{}|", f * 100.0, "#".repeat(width));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_resolve() {
        let reads: Vec<usize> =
            SCALES.iter().map(|s| scale(s).expect("a listed scale resolves").num_reads).collect();
        assert!(reads.windows(2).all(|w| w[0] < w[1]), "smallest first: {reads:?}");
        assert!(scale("0.3").is_none() && scale("Medium").is_none());
    }

    #[test]
    fn fmt_dur_ranges() {
        assert!(fmt_dur(Duration::from_secs(2)).ends_with(" s"));
        assert!(fmt_dur(Duration::from_millis(5)).ends_with(" ms"));
        assert!(fmt_dur(Duration::from_micros(7)).ends_with(" µs"));
    }

    #[test]
    fn stages_measure_on_tiny_data() {
        let mut cfg = DatagenConfig::tiny();
        cfg.num_reads = 200;
        let dataset = Dataset::generate(&cfg);
        let comparisons = measure_stages(&dataset);
        assert_eq!(comparisons.len(), 3);
        for c in &comparisons {
            assert!(c.stats.cycles > 0, "{:?} has no cycles", c.stage);
        }
    }
}
