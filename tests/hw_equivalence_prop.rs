//! Property-based equivalence: for arbitrary generated data sets, the
//! hardware pipelines agree with the software oracles.

mod common;

use common::count_matching_bases_sw;
use genesis::core::accel::markdup::QualitySumAccel;
use genesis::core::accel::metadata::MetadataAccel;
use genesis::core::compile::{figure4_script, Compiler};
use genesis::core::device::DeviceConfig;
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::gatk::markdup::quality_sums;
use genesis::gatk::metadata::set_nm_md_uq_tags;
use genesis::types::Value;
use genesis_bench::scenarios::figure4_partitions;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = DatagenConfig> {
    (
        0u64..1_000_000,        // seed
        50usize..200,           // reads
        40u32..120,             // read length
        0.0f64..0.1,            // insertion rate
        0.0f64..0.1,            // deletion rate
        0.0f64..0.3,            // soft clip rate
    )
        .prop_map(|(seed, reads, read_len, ins, del, clip)| DatagenConfig {
            seed,
            num_reads: reads,
            read_len,
            insertion_rate: ins,
            deletion_rate: del,
            soft_clip_rate: clip,
            chrom_len: 10_000,
            num_chromosomes: 1,
            ..DatagenConfig::tiny()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn quality_sums_equivalence(cfg in arb_config()) {
        let dataset = Dataset::generate(&cfg);
        let accel = QualitySumAccel::new(DeviceConfig::small());
        let run = accel.run(&dataset.reads).unwrap();
        prop_assert_eq!(run.sums, quality_sums(&dataset.reads));
    }

    #[test]
    fn matching_bases_equivalence(cfg in arb_config()) {
        let dataset = Dataset::generate(&cfg);
        let oracle = count_matching_bases_sw(&dataset.reads, &dataset.genome);
        let parts = figure4_partitions(&dataset, 5_000);
        let plan = Compiler::new(DeviceConfig::small())
            .compile_sql(figure4_script(), &parts[0].1)
            .unwrap();
        for (read_indices, cat) in &parts {
            let (out, _) = plan.execute(cat).unwrap();
            let got: Vec<Value> = (0..out.num_rows()).map(|r| out.get(r, "SUM").unwrap()).collect();
            let want: Vec<Value> =
                read_indices.iter().map(|&i| Value::U64(u64::from(oracle[i as usize]))).collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn metadata_tags_equivalence(cfg in arb_config()) {
        let dataset = Dataset::generate(&cfg);
        let mut sw = dataset.reads.clone();
        set_nm_md_uq_tags(&mut sw, &dataset.genome).unwrap();
        let accel = MetadataAccel::new(DeviceConfig::small().with_psize(5_000));
        let (tags, _) = accel.run(&dataset.reads, &dataset.genome).unwrap();
        for (i, s) in sw.iter().enumerate() {
            prop_assert_eq!(Some(tags.nm[i]), s.nm);
            prop_assert_eq!(Some(tags.uq[i]), s.uq);
            prop_assert_eq!(Some(&tags.md[i]), s.md.as_ref());
        }
    }
}
