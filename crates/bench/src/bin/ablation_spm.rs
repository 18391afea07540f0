//! Ablation (paper §III-D and §VI): what the on-chip scratchpad buys.
//!
//! The paper contrasts Genesis with Q100-style designs that "only utilize
//! scratchpad memory as a stream buffer and thus cannot implement the
//! dataflow pipeline exploiting data reuse". This ablation quantifies the
//! reuse: reference traffic with the SPM (each partition's reference loads
//! once) versus without (each read would stream its own reference window
//! from device memory).

use genesis_bench::{env_device, fmt_dur, print_table, scale_config};
use genesis_core::accel::metadata::MetadataAccel;
use genesis_datagen::Dataset;

fn main() {
    let device = env_device().with_pipelines(16);
    let cfg = scale_config();
    println!(
        "SPM data-reuse ablation — Metadata Update accelerator\n\
         data set: {} reads x {} bp\n",
        cfg.num_reads, cfg.read_len
    );
    let dataset = Dataset::generate(&cfg);
    let accel = MetadataAccel::new(device.clone());
    let (_, stats) = accel.run(&dataset.reads, &dataset.genome).expect("sim");

    // With SPM: each partition's reference streams from memory exactly once.
    let partitions =
        (u64::from(cfg.chrom_len).div_ceil(u64::from(device.psize))) * u64::from(cfg.num_chromosomes);
    let with_spm_ref_bytes = partitions * u64::from(device.psize + cfg.read_len);

    // Without SPM: every read pulls its own reference window from memory.
    let without_spm_ref_bytes: u64 =
        dataset.reads.iter().map(|r| u64::from(r.cigar.ref_len())).sum();

    // Memory-bandwidth-bound time at the device's aggregate bandwidth
    // (4 channels x 64 B/cycle at 250 MHz = 64 GB/s).
    let bw = 64.0e9;
    let t_with = with_spm_ref_bytes as f64 / bw;
    let t_without = without_spm_ref_bytes as f64 / bw;

    print_table(
        &["configuration", "reference traffic", "bandwidth-bound time"],
        &[
            vec![
                "reference in SPM (Genesis)".into(),
                format!("{:.2} MB", with_spm_ref_bytes as f64 / 1e6),
                fmt_dur(std::time::Duration::from_secs_f64(t_with)),
            ],
            vec![
                "reference streamed per read (Q100-style)".into(),
                format!("{:.2} MB", without_spm_ref_bytes as f64 / 1e6),
                fmt_dur(std::time::Duration::from_secs_f64(t_without)),
            ],
        ],
    );
    println!(
        "\nreuse factor: {:.1}x less reference traffic with the scratchpad",
        without_spm_ref_bytes as f64 / with_spm_ref_bytes as f64
    );
    println!(
        "measured device-memory traffic of the SPM design: {:.2} MB across {} invocations",
        stats.device_mem_bytes as f64 / 1e6,
        stats.invocations
    );
    println!(
        "\n(the gap widens with coverage depth — the paper's evaluated data set\n\
         covers each reference base ~35x, ours ~{:.0}x)",
        dataset.reads.len() as f64 * f64::from(cfg.read_len)
            / (f64::from(cfg.chrom_len) * f64::from(cfg.num_chromosomes))
    );
}
