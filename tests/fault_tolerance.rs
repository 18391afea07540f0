//! Fault-tolerance acceptance tests: under seeded fault schedules, the
//! three paper accelerators must converge to *bit-identical* output via
//! retry and graceful degradation — or return a structured error — and
//! must never panic or hang.

use genesis::core::accel::bqsr::BqsrAccel;
use genesis::core::accel::markdup::QualitySumAccel;
use genesis::core::accel::metadata::MetadataAccel;
use genesis::core::device::DeviceConfig;
use genesis::core::fault::FaultConfig;
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::core::CoreError;
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::sql::Catalog;
use genesis::types::{Column, DataType, Field, Schema, Table};
use proptest::prelude::*;
use std::time::Duration;

/// A fault config with aggressive injection rates and instant backoff
/// (tests should not sleep).
fn seeded_faults(seed: u64, dma_ppm: u32, device_ppm: u32, mem_ppm: u32) -> FaultConfig {
    FaultConfig {
        seed,
        dma_fail_ppm: dma_ppm,
        device_fail_ppm: device_ppm,
        mem_spike_ppm: mem_ppm,
        mem_spike_cycles: 200,
        max_retries: 2,
        backoff_base: Duration::ZERO,
        backoff_cap: Duration::ZERO,
        fallback: true,
    }
}

/// The acceptance schedule: ≥10% DMA failures plus transient device
/// faults and memory spikes.
fn acceptance_faults(seed: u64) -> FaultConfig {
    seeded_faults(seed, 150_000, 60_000, 2_000)
}

#[test]
fn markdup_is_bit_identical_under_faults() {
    let dataset = Dataset::generate(&DatagenConfig::tiny());
    let clean = QualitySumAccel::new(DeviceConfig::small()).run(&dataset.reads).unwrap();
    assert!(clean.stats.faults.is_empty(), "fault-free run must report no faults");
    let cfg = DeviceConfig::small().with_faults(acceptance_faults(7));
    let faulty = QualitySumAccel::new(cfg).run(&dataset.reads).unwrap();
    assert_eq!(faulty.sums, clean.sums, "recovered output must be bit-identical");
    assert!(faulty.stats.faults.injected() > 0, "schedule must actually inject");
    assert!(faulty.stats.faults.retries > 0);
}

#[test]
fn metadata_is_bit_identical_under_faults() {
    let dataset = Dataset::generate(&DatagenConfig::tiny());
    let accel = MetadataAccel::new(DeviceConfig::small());
    let (clean, _) = accel.run(&dataset.reads, &dataset.genome).unwrap();
    let cfg = DeviceConfig::small().with_faults(acceptance_faults(13));
    let (faulty, stats) = MetadataAccel::new(cfg).run(&dataset.reads, &dataset.genome).unwrap();
    assert_eq!(faulty, clean);
    assert!(stats.faults.injected() > 0);
}

#[test]
fn bqsr_is_bit_identical_under_faults() {
    let gen_cfg = DatagenConfig::tiny();
    let dataset = Dataset::generate(&gen_cfg);
    let accel = BqsrAccel::new(DeviceConfig::small(), gen_cfg.read_len);
    let (clean, _) = accel.run(&dataset.reads, &dataset.genome, gen_cfg.read_groups).unwrap();
    let dev = DeviceConfig::small().with_faults(acceptance_faults(29));
    let (faulty, stats) = BqsrAccel::new(dev, gen_cfg.read_len)
        .run(&dataset.reads, &dataset.genome, gen_cfg.read_groups)
        .unwrap();
    assert_eq!(faulty, clean, "covariate tables must match bit for bit");
    assert!(stats.faults.injected() > 0);
}

#[test]
fn guaranteed_fallback_exercises_the_oracle() {
    // 100% DMA failure: every batch exhausts its retries and degrades to
    // the software oracle — output must still be exact.
    let dataset = Dataset::generate(&DatagenConfig::tiny());
    let clean = QualitySumAccel::new(DeviceConfig::small()).run(&dataset.reads).unwrap();
    let cfg = DeviceConfig::small().with_faults(seeded_faults(3, 1_000_000, 0, 0));
    let run = QualitySumAccel::new(cfg).run(&dataset.reads).unwrap();
    assert_eq!(run.sums, clean.sums);
    assert!(run.stats.faults.fallback_batches > 0);
    assert!(run.stats.faults.fallback_jobs >= run.stats.faults.fallback_batches);
    assert_eq!(run.stats.invocations, 0, "no simulated batch succeeded");
}

#[test]
fn fallback_disabled_surfaces_structured_error() {
    let dataset = Dataset::generate(&DatagenConfig::tiny());
    let mut faults = seeded_faults(3, 1_000_000, 0, 0);
    faults.fallback = false;
    let cfg = DeviceConfig::small().with_faults(faults);
    let err = QualitySumAccel::new(cfg).run(&dataset.reads).unwrap_err();
    assert!(
        err.to_string().contains("attempt"),
        "error should mention the exhausted attempts: {err}"
    );
}

#[test]
fn fault_schedule_is_thread_count_invariant() {
    let dataset = Dataset::generate(&DatagenConfig::tiny());
    let run_with_threads = |threads: usize| {
        let cfg = DeviceConfig::small()
            .with_pipelines(1) // several batches → real parallelism
            .with_host_threads(threads)
            .with_faults(acceptance_faults(99));
        QualitySumAccel::new(cfg).run(&dataset.reads).unwrap()
    };
    let seq = run_with_threads(1);
    let par = run_with_threads(4);
    assert_eq!(seq.sums, par.sums);
    assert_eq!(seq.stats.faults, par.stats.faults, "fault report must not depend on threads");
}

/// The fault plane under sharding (first fixed case of ROADMAP D(iii)): a
/// compiled plan served over two shards on faulty devices returns the
/// fault-free table, and the recovery it took is in the job's stats and
/// in the server's snapshot.
#[test]
fn recovery_counters_surface_in_host_metrics_snapshot() {
    const HIST_SQL: &str = "\
        INSERT INTO Hist\n\
        SELECT K, COUNT(*)\n\
        FROM T\n\
        GROUP BY K\n\
        ORDER BY K";
    let mut catalog = Catalog::new();
    catalog.register(
        "T",
        Table::from_columns(
            Schema::new(vec![Field::new("K", DataType::U32)]),
            vec![Column::U32((0..512u32).map(|i| i * i % 7).collect())],
        )
        .unwrap(),
    );
    // Every shard's run is "batch 0" to `run_batches`, so all shards roll
    // the same dice: the schedule must fault the first attempt and clear
    // a later one.
    let faults = (0..)
        .map(|seed| seeded_faults(seed, 500_000, 0, 0))
        .find(|f| f.dma_fault(0, 0).is_some() && f.dma_fault(0, 1).is_none())
        .unwrap();
    let serve = |device: DeviceConfig| {
        let server =
            GenesisServer::new(ServerConfig::default().with_devices(2, device).with_shards(2));
        server.register_script("hist", HIST_SQL).unwrap();
        let (table, stats) =
            server.submit(Request::script("tenant", "hist"), &catalog).unwrap().wait().unwrap();
        (table, stats, server.metrics_snapshot().counters)
    };
    let (clean, clean_stats, _) = serve(DeviceConfig::small());
    assert!(clean_stats.faults.is_empty(), "fault-free run must report no faults");
    let (recovered, stats, counters) = serve(DeviceConfig::small().with_faults(faults));
    assert_eq!(recovered, clean, "recovered table must be bit-identical");
    assert!(stats.faults.retries > 0, "each shard retries its faulted first attempt");
    assert_eq!(counters["server.faults.retries"], stats.faults.retries);
    assert_eq!(counters["server.shards.dispatched"], 2);
}

fn arb_faults() -> impl Strategy<Value = FaultConfig> {
    (0u64..1_000_000, 0u32..400_000, 0u32..200_000, 0u32..5_000, 0u32..2).prop_map(
        |(seed, dma, device, mem, fallback)| FaultConfig {
            fallback: fallback == 1,
            ..seeded_faults(seed, dma, device, mem)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any seeded schedule either converges to bit-identical output or
    /// returns a structured error — never a panic (and the cycle budget /
    /// deadlock detector bound runtime, so never a hang).
    #[test]
    fn any_schedule_converges_or_errors(faults in arb_faults()) {
        let dataset = Dataset::generate(&DatagenConfig::tiny());
        let gen_cfg = DatagenConfig::tiny();
        let clean_md = QualitySumAccel::new(DeviceConfig::small()).run(&dataset.reads).unwrap();
        let (clean_meta, _) = MetadataAccel::new(DeviceConfig::small())
            .run(&dataset.reads, &dataset.genome).unwrap();
        let (clean_bqsr, _) = BqsrAccel::new(DeviceConfig::small(), gen_cfg.read_len)
            .run(&dataset.reads, &dataset.genome, gen_cfg.read_groups).unwrap();
        let dev = DeviceConfig::small().with_faults(faults);

        match QualitySumAccel::new(dev.clone()).run(&dataset.reads) {
            Ok(run) => prop_assert_eq!(&run.sums, &clean_md.sums),
            Err(e) => prop_assert!(matches!(e,
                CoreError::Host(_) | CoreError::Dma(_) | CoreError::Device(_) | CoreError::Sim(_))),
        }
        match MetadataAccel::new(dev.clone()).run(&dataset.reads, &dataset.genome) {
            Ok((tags, _)) => prop_assert_eq!(&tags, &clean_meta),
            Err(e) => prop_assert!(matches!(e,
                CoreError::Host(_) | CoreError::Dma(_) | CoreError::Device(_) | CoreError::Sim(_))),
        }
        match BqsrAccel::new(dev, gen_cfg.read_len)
            .run(&dataset.reads, &dataset.genome, gen_cfg.read_groups)
        {
            Ok((table, _)) => prop_assert_eq!(&table, &clean_bqsr),
            Err(e) => prop_assert!(matches!(e,
                CoreError::Host(_) | CoreError::Dma(_) | CoreError::Device(_) | CoreError::Sim(_))),
        }
    }
}
