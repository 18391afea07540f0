//! The paper's core claim, tested directly: the Figure 4 extended-SQL
//! script gives every read the same matching-base count on the software
//! engine, as one compiled Figure 7 pipeline run partition by partition,
//! and by direct computation over the reads.

mod common;

use common::count_matching_bases_sw;
use genesis::core::compile::{figure4_script, Compiler};
use genesis::core::device::DeviceConfig;
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::sql::Script;
use genesis::types::Value;
use genesis_bench::scenarios::figure4_partitions;

#[test]
fn figure4_sql_equals_figure7_hardware() {
    let dataset = Dataset::generate(&DatagenConfig::tiny());
    let oracle = count_matching_bases_sw(&dataset.reads, &dataset.genome);
    let script = figure4_script();
    // 20 kbp partitions are whole chromosomes; at 5 kbp most reference
    // windows start past position 0.
    for psize in [20_000, 5_000] {
        let mut parts = figure4_partitions(&dataset, psize);
        let plan = Compiler::new(DeviceConfig::small()).compile_sql(script, &parts[0].1).unwrap();
        let mut reads = 0;
        for (read_indices, cat) in &mut parts {
            let (hw, _) = plan.execute(cat).unwrap();
            Script::parse(script).unwrap().run(cat).unwrap();
            let sw = cat.table("Output").unwrap();
            assert_eq!((sw.num_rows(), hw.num_rows()), (read_indices.len(), read_indices.len()));
            for (row, &idx) in read_indices.iter().enumerate() {
                let want = Value::U64(u64::from(oracle[idx as usize]));
                let got = (sw.get(row, "SUM").unwrap(), hw.get(row, "SUM").unwrap());
                assert_eq!(got, (want.clone(), want), "psize {psize}, read {idx}: (SQL, compiled)");
            }
            reads += read_indices.len();
        }
        assert_eq!(reads, dataset.reads.len(), "every read sits in one partition");
    }
}
