//! Fault-tolerance acceptance tests: under seeded fault schedules, the
//! three paper accelerators must converge to *bit-identical* output via
//! retry and graceful degradation — or return a structured error — and
//! must never panic or hang.

mod common;

use common::{arb_faults, catalog_of, check, is_fault_error, seeded_faults, u32_table, Axes, Query};
use genesis::core::accel::bqsr::BqsrAccel;
use genesis::core::accel::markdup::QualitySumAccel;
use genesis::core::accel::metadata::MetadataAccel;
use genesis::core::device::DeviceConfig;
use genesis::core::fault::FaultConfig;
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::types::Table;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

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

/// Whether a served shard's first (only) batch draws an injected DMA fault
/// on `attempt`. A served shard's dice are keyed by its dispatch sequence
/// number `seq`, carried above bit 32 of the batch index, so shard 0 of a
/// fresh server rolls exactly what an unsharded `execute` rolls.
fn shard_dma_fault(faults: &FaultConfig, seq: u64, attempt: u32) -> bool {
    faults.dma_fault(seq << 32, attempt).is_some()
}

/// A histogram of `T.K`, into `Hist`.
const HIST_SQL: &str = "\
    INSERT INTO Hist\n\
    SELECT K, COUNT(*)\n\
    FROM T\n\
    GROUP BY K\n\
    ORDER BY K";

/// `T(K)`: 512 rows of 7 keys.
fn hist_catalog() -> genesis::sql::Catalog {
    let keys = (0..512u32).map(|i| i * i % 7).collect();
    catalog_of(vec![("T", u32_table(vec![("K", keys)]))])
}

/// Serves [`HIST_SQL`] over [`hist_catalog`] once, on a fresh two-device
/// server split into `shards` shards; returns the result and the server's
/// counters.
fn serve_hist(
    device: DeviceConfig,
    shards: usize,
) -> (Table, genesis::core::AccelStats, BTreeMap<String, u64>) {
    let catalog = hist_catalog();
    let server =
        GenesisServer::new(ServerConfig::default().with_devices(2, device).with_shards(shards));
    server.register_script("hist", HIST_SQL).unwrap();
    let (table, stats) =
        server.submit(Request::script("tenant", "hist"), &catalog).unwrap().wait().unwrap();
    (table, stats, server.metrics_snapshot().counters)
}

/// The fault plane under sharding: a compiled plan served over two shards
/// on faulty devices returns the fault-free table, and the recovery it
/// took is in the job's stats and in the server's snapshot.
#[test]
fn recovery_counters_surface_in_host_metrics_snapshot() {
    // Each shard rolls its own dice: pick a schedule that faults both
    // shards' first attempts and clears their second.
    let faults = (0..)
        .map(|seed| seeded_faults(seed, 500_000, 0, 0))
        .find(|f| (0..2).all(|seq| shard_dma_fault(f, seq, 0) && !shard_dma_fault(f, seq, 1)))
        .unwrap();
    let (clean, clean_stats, _) = serve_hist(DeviceConfig::small(), 2);
    assert!(clean_stats.faults.is_empty(), "fault-free run must report no faults");
    let (recovered, stats, counters) = serve_hist(DeviceConfig::small().with_faults(faults), 2);
    assert_eq!(recovered, clean, "recovered table must be bit-identical");
    assert_eq!(stats.faults.retries, 2, "each shard retries its faulted first attempt");
    assert_eq!(counters["server.faults.retries"], stats.faults.retries);
    assert_eq!(counters["server.shards.dispatched"], 2);
}

/// ROADMAP D(iii): the shards of one job do not share fault dice. Under a
/// schedule that faults exactly one of four shards' first attempts, the
/// job retries once; with shared dice every shard faulted or none did.
#[test]
fn one_faulted_shard_retries_alone() {
    let faults = (0..)
        .map(|seed| seeded_faults(seed, 300_000, 0, 0))
        .find(|f| {
            let hit: Vec<u64> = (0..4).filter(|&seq| shard_dma_fault(f, seq, 0)).collect();
            hit.len() == 1 && !shard_dma_fault(f, hit[0], 1)
        })
        .unwrap();
    let (clean, _, _) = serve_hist(DeviceConfig::small(), 4);
    let (recovered, stats, counters) = serve_hist(DeviceConfig::small().with_faults(faults), 4);
    assert_eq!(recovered, clean, "recovered table must be bit-identical");
    assert_eq!(counters["server.shards.dispatched"], 4);
    assert_eq!(stats.faults.dma_errors + stats.faults.dma_timeouts, 1);
    assert_eq!(stats.faults.retries, 1, "only the faulted shard retries");
    assert_eq!(counters["server.faults.retries"], 1);
}

/// Backoff is modeled device time, not a host sleep: a one-second pause
/// before a shard's retry lands on the device timeline, and the ticket
/// resolves in a fraction of that on the wall clock.
#[test]
fn backoff_is_modeled_time_not_a_sleep() {
    let faults = (0..)
        .map(|seed| FaultConfig::from_spec(&format!("dma=0.5,seed={seed},backoff=1s:1s")).unwrap())
        .find(|f| shard_dma_fault(f, 0, 0) && !shard_dma_fault(f, 0, 1))
        .unwrap();
    let catalog = catalog_of(vec![("T", u32_table(vec![("X", (1..=64).collect())]))]);
    let server = GenesisServer::new(
        ServerConfig::default().with_devices(1, DeviceConfig::small().with_faults(faults)),
    );
    server.register_script("sum", "INSERT INTO S SELECT SUM(X) FROM T").unwrap();
    let ticket = server.submit(Request::script("tenant", "sum"), &catalog).unwrap();
    let start = Instant::now();
    let (_, stats) = ticket.wait().unwrap();
    let wall = start.elapsed();
    assert_eq!((stats.faults.retries, stats.faults.backoff_ns), (1, 1_000_000_000));
    assert!(wall < Duration::from_millis(500), "the ticket slept through its backoff: {wall:?}");
    let modeled = server.modeled_device_time()[0];
    assert!(modeled >= Duration::from_secs(1), "backoff missing from modeled time: {modeled:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any seeded schedule either converges to bit-identical output or
    /// returns a structured error — never a panic (and the cycle budget /
    /// deadlock detector bound runtime, so never a hang). The compiled
    /// histogram runs again after a run over other data, on the Systems
    /// that run's faulted attempts handed back.
    #[test]
    fn any_schedule_converges_or_errors(faults in arb_faults()) {
        let axes = Axes::at(4).faults(Some(faults.clone())).reused();
        check(Query::Script { sql: HIST_SQL, out: "Hist" }, &hist_catalog(), &axes)?;
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
            Err(e) => prop_assert!(is_fault_error(&e)),
        }
        match MetadataAccel::new(dev.clone()).run(&dataset.reads, &dataset.genome) {
            Ok((tags, _)) => prop_assert_eq!(&tags, &clean_meta),
            Err(e) => prop_assert!(is_fault_error(&e)),
        }
        match BqsrAccel::new(dev, gen_cfg.read_len)
            .run(&dataset.reads, &dataset.genome, gen_cfg.read_groups)
        {
            Ok((table, _)) => prop_assert_eq!(&table, &clean_bqsr),
            Err(e) => prop_assert!(is_fault_error(&e)),
        }
    }
}
