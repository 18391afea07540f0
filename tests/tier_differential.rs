//! Tiered-memory differential suite: with `GENESIS_TIERS`-style paging
//! enabled (tiny SPM quotas so every scratchpad page spills), compiled
//! pipelines must stay bit-identical to both the spill-off hardware run
//! and the software engine — under both simulation engines — while the
//! added cycles land in the `spill-wait` stall bucket and the `tier.*`
//! counters.
//!
//! Also covers the hw-level invariants: spill-wait spans tile each
//! module's timeline exactly (including deadlock exits), and a
//! `≥1M`-group aggregate whose histogram is ~8× the modeled SPM runs
//! through `GenesisServer` bit-identical to the software oracle.

mod common;

use common::{catalog_of, check, grouped, masked_join, same_table, scan, u32_table, Axes, ENGINES};
use genesis::core::compile::Compiler;
use genesis::core::device::{DeviceConfig, TierConfig};
use genesis::core::{AccelStats, CoreError, GenesisServer, Request, ServerConfig};
use genesis::hw::modules::sink::StreamSink;
use genesis::hw::modules::source::StreamSource;
use genesis::hw::modules::spm_reader::{SpmReadMode, SpmReader};
use genesis::hw::modules::spm_updater::{SpmUpdateMode, SpmUpdater};
use genesis::hw::{EngineMode, StallReport, System, TierParams, TraceConfig};
use genesis::obs::{SpanKind, StallClass};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A tier configuration with a zero on-chip quota and 64-byte pages, so
/// even the tiny proptest scratchpads page against device DRAM on every
/// cold touch. Latencies are shrunk (10-cycle PCIe, 4-cycle DRAM at the
/// 250 MHz default clock) to keep the sweep fast.
fn tiny_tiers() -> TierConfig {
    TierConfig { dram_bytes: 1 << 20, ..common::tiny_tiers() }
}

/// Runs `plan` four ways — software engine, spill-off hardware, and
/// spill-on hardware under both engines — and fails
/// unless every run produces the same table. Returns the per-combination
/// spill-on statistics (engine order) for further assertions.
fn differential_tiered(
    plan: &LogicalPlan,
    catalog: &Catalog,
    factor: usize,
) -> Result<Vec<AccelStats>, TestCaseError> {
    let (_, off) = check(plan, catalog, &Axes::at(factor))?.remove(0);
    if off.spill_wait_cycles != 0 || off.tier_pages_filled != 0 {
        return Err(TestCaseError::fail(
            "tiers-off run must not report tier activity".to_owned(),
        ));
    }
    let tiered = Axes { tiers: Some(tiny_tiers()), ..Axes::at(factor).engines(&ENGINES) };
    let all: Vec<AccelStats> = check(plan, catalog, &tiered)?.into_iter().map(|r| r.1).collect();

    // Deterministic timing: simulated cycles, flits, and tier traffic must
    // agree across the engines (the stall-bucket split is the one designed
    // difference: the reference engine never parks).
    let (fast, reference) = (&all[0], &all[1]);
    let same = reference.cycles == fast.cycles
        && reference.total_flits == fast.total_flits
        && reference.tier_pages_filled == fast.tier_pages_filled
        && reference.tier_pages_spilled == fast.tier_pages_spilled
        && reference.tier_prefetch_hits == fast.tier_prefetch_hits
        && reference.tier_pcie_bytes == fast.tier_pcie_bytes;
    if !same {
        return Err(TestCaseError::fail(format!(
            "reference diverged from fast:\n  {reference}\nvs\n  {fast}"
        )));
    }
    Ok(all)
}

/// `SELECT K, COUNT(*), SUM(W) FROM T GROUP BY K ORDER BY K` over `ks`
/// and `ws`.
fn grouped_agg_plan(ks: &[u32], ws: &[u32]) -> (LogicalPlan, Catalog) {
    let catalog = catalog_of(vec![("T", u32_table(vec![("K", ks.to_vec()), ("W", ws.to_vec())]))]);
    (grouped(scan("T"), "K", &["W"]), catalog)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// GROUP BY through the scratchpad-histogram path with every page
    /// cold: spill-on must match spill-off and software bit for bit on
    /// both engines, and the fast engine must attribute spill waits.
    #[test]
    fn tiered_grouped_aggregate_differential(
        ks in proptest::collection::vec(0u32..48, 1..40),
        weight_mul in 1u32..9,
        factor in 1usize..4,
    ) {
        let ws: Vec<u32> = ks.iter().enumerate().map(|(i, k)| k * weight_mul + i as u32 % 5).collect();
        let (plan, catalog) = grouped_agg_plan(&ks, &ws);
        let all = differential_tiered(&plan, &catalog, factor)?;
        // The histogram scratchpads page (zero SPM quota), so the parking
        // engine must see cold-page waits; the reference engine re-ticks
        // instead of parking and accounts those cycles as active.
        for (i, engine) in ENGINES.iter().enumerate() {
            if *engine == EngineMode::Reference {
                prop_assert_eq!(all[i].spill_wait_cycles, 0);
            } else {
                prop_assert!(
                    all[i].spill_wait_cycles > 0,
                    "{:?}: expected spill waits, got {}",
                    engine, all[i]
                );
            }
            prop_assert!(all[i].tier_pages_filled > 0);
            prop_assert!(all[i].tier_pcie_bytes > 0);
        }
    }

    /// Sorted-merge joins under tiering: the join datapath is streaming
    /// (no scratchpads), so tiering must be timing-neutral noise — same
    /// tables on every engine, spill-on or off.
    #[test]
    fn tiered_join_differential(
        left_mask in proptest::collection::vec(0usize..2, 24..25),
        right_mask in proptest::collection::vec(0usize..2, 24..25),
        left_join in 0usize..2,
        lmul in 1u32..7,
        rmul in 1u32..7,
        factor in 1usize..3,
    ) {
        let (plan, [left, right]) = masked_join(&left_mask, &right_mask, left_join == 1, lmul, rmul);
        let catalog = catalog_of(vec![("L", u32_table(left)), ("R", u32_table(right))]);
        differential_tiered(&plan, &catalog, factor)?;
    }
}

/// A deterministic spill-heavy GROUP BY swept across the full matrix:
/// beyond the proptest sweep, pins down that eviction + refill traffic
/// (not just cold fills) stays engine-invariant.
#[test]
fn spill_heavy_matrix_is_deterministic() {
    let ks: Vec<u32> = (0..600u32).map(|i| (i * 7) % 48).collect();
    let ws: Vec<u32> = ks.iter().map(|k| k * 3 + 1).collect();
    let (plan, catalog) = grouped_agg_plan(&ks, &ws);
    let all = differential_tiered(&plan, &catalog, 2).unwrap();
    assert!(
        all[0].tier_pages_spilled > 0,
        "single-page budgets over a 48-key domain must evict: {}",
        all[0]
    );
    let [active, input, backpr, mem, spill] = all[0].stall_fractions();
    let sum = active + input + backpr + mem + spill;
    assert!((sum - 1.0).abs() < 1e-9, "stall fractions must tile: {sum}");
    assert!(spill > 0.0, "spill share must be visible in the breakdown");
}

/// Structured admission failure: a working set larger than
/// SPM + device DRAM + bounded host DRAM must surface as
/// [`CoreError::TierCapacity`] naming the scratchpad, before any cycles
/// are simulated.
#[test]
fn overcommitted_working_set_is_a_structured_error() {
    let ks: Vec<u32> = (0..64u32).map(|i| i * 32).collect(); // domain 2017
    let ws: Vec<u32> = ks.iter().map(|k| k + 1).collect();
    let (plan, catalog) = grouped_agg_plan(&ks, &ws);
    let cramped = TierConfig {
        spm_bytes: 1024,
        dram_bytes: 4096,
        host_bytes: 4096,
        ..TierConfig::default()
    };
    let compiled = Compiler::new(DeviceConfig::small().with_tiers(cramped))
        .compile(&plan, &catalog)
        .expect("compiles; admission happens at run time");
    let err = compiled.execute_replicated(&catalog, 1).unwrap_err();
    match &err {
        CoreError::TierCapacity { spm, spm_bytes, need_bytes, capacity_bytes } => {
            assert!(!spm.is_empty(), "error must name the scratchpad: {err}");
            assert!(spm_bytes > &0 && need_bytes >= spm_bytes);
            assert_eq!(*capacity_bytes, 1024 + 4096 + 4096);
        }
        other => panic!("expected TierCapacity, got: {other}"),
    }
    let text = err.to_string();
    assert!(text.contains("tiered memory exhausted"), "got: {text}");
}

/// The acceptance workload: a `>1M`-group aggregate whose two histogram
/// scratchpads (~8 MiB each) are ~8× the 1 MiB modeled SPM, submitted
/// through a one-device `GenesisServer` — bit-identical to the software
/// oracle, with the spill waits attributed in the returned statistics and
/// the `server.tier.*` counters published to the metrics registry.
#[test]
fn million_group_aggregate_spills_and_matches_the_oracle() {
    const DOMAIN: u32 = 1 << 20; // 1,048,576 groups
    let ks: Vec<u32> = (0..DOMAIN).collect();
    let ws: Vec<u32> = ks.iter().map(|k| k % 251).collect();
    let (plan, catalog) = grouped_agg_plan(&ks, &ws);

    let tiers = TierConfig { spm_bytes: 1 << 20, ..TierConfig::default() };
    let cfg = DeviceConfig::small().with_tiers(tiers).with_psize(DOMAIN + 1);
    let compiled =
        Compiler::new(cfg.clone()).compile(&plan, &catalog).expect("tiers lift the domain cap");

    let server = GenesisServer::new(ServerConfig::default().with_devices(1, cfg));
    let ticket = server.submit(Request::precompiled("t", compiled), &catalog).expect("submit");
    let (hw, stats) = ticket.wait().expect("tiered job completes");
    let sw = execute_plan(&plan, &catalog, &Env::default()).expect("oracle");
    same_table(&hw, &sw, "1M-group aggregate").unwrap();

    assert!(stats.spill_wait_cycles > 0, "8x-oversubscribed SPM must wait on spills: {stats}");
    assert!(stats.tier_pages_filled > 0 && stats.tier_pages_spilled > 0, "got: {stats}");
    assert!(stats.tier_pcie_bytes > 0, "cold pages arrive over the PCIe link: {stats}");
    let snap = server.metrics_snapshot();
    for key in ["pages_filled", "pages_spilled", "spill_wait_cycles"] {
        assert!(
            snap.counters.get(&format!("server.tier.{key}")).is_some_and(|v| *v > 0),
            "metrics snapshot must publish server.tier.{key}: {:?}",
            snap.counters.keys().collect::<Vec<_>>()
        );
    }
}

// ---------------------------------------------------------------------------
// hw-level invariants: spill-wait spans tile the timeline.
// ---------------------------------------------------------------------------

/// Cycle-level tier parameters matching [`tiny_tiers`]'s spirit: 64-byte
/// pages, a four-page resident budget (two pages would leave the stride
/// prefetcher no room to run ahead), cheap links.
fn hw_tier_params() -> TierParams {
    TierParams {
        page_bytes: 64,
        spm_bytes: 256,
        dram_bytes: 1 << 20,
        host_bytes: 0,
        pcie_lat_cycles: 10,
        pcie_bytes_per_cycle: 8,
        dram_lat_cycles: 4,
        dram_bytes_per_cycle: 16,
        max_inflight: 4,
    }
}

/// Source → sequential SPM updater → triggered drain → sink over a 512 B
/// scratchpad that pages under the 256 B tier quota. Returns the sink's
/// module id for result extraction.
fn build_spill_pipeline(sys: &mut System) -> genesis::hw::system::ModuleId {
    let items: Vec<Vec<u64>> = (0..64u64).map(|i| vec![i * 3 + 1]).collect();
    let q_src = sys.add_queue_with_capacity("src", 4);
    let q_trig = sys.add_queue_with_capacity("trig", 4);
    let q_out = sys.add_queue_with_capacity("out", 4);
    let spm = sys.add_spm("hist", 64, 8);
    sys.add_module(Box::new(StreamSource::from_items("src", q_src, &items)));
    sys.add_module(Box::new(
        SpmUpdater::new("upd", spm, SpmUpdateMode::Sequential { base: 0 }, 0, 0, q_src)
            .with_forward(q_trig),
    ));
    sys.add_module(Box::new(SpmReader::new(
        "drain",
        vec![spm],
        SpmReadMode::Drain { trigger: q_trig, len: 64 },
        0,
        q_out,
    )));
    sys.add_module(Box::new(StreamSink::new("sink", q_out)))
}

/// Every module's five buckets must sum exactly to the run's total cycles.
fn assert_tiling(report: &StallReport) {
    assert!(!report.modules.is_empty());
    for m in &report.modules {
        assert_eq!(
            m.counters.total(),
            report.total_cycles,
            "module {}: buckets {:?} do not tile total {}",
            m.label,
            m.counters,
            report.total_cycles,
        );
    }
}

#[test]
fn spill_waits_tile_the_timeline_and_stay_bit_identical() {
    let run = |tiered: bool, engine: EngineMode| {
        let mut sys = System::new();
        sys.set_engine(engine);
        let sink = build_spill_pipeline(&mut sys);
        if tiered {
            sys.set_tiers(hw_tier_params()).expect("unbounded host pool admits everything");
        }
        sys.run(1_000_000).expect("pipeline drains");
        (sys.sink_values(sink), sys.cycle(), sys.stall_report(), sys.tier_stats())
    };

    let (vals_off, cycles_off, report_off, tiers_off) = run(false, EngineMode::Fast);
    assert_tiling(&report_off);
    assert_eq!(tiers_off, None, "tier stats only exist once set_tiers is called");
    assert_eq!(report_off.totals().spill_wait, 0);

    let (vals_on, cycles_on, report_on, tiers_on) = run(true, EngineMode::Fast);
    assert_tiling(&report_on);
    assert_eq!(vals_on, vals_off, "tiering is timing-only: results must not change");
    assert!(cycles_on > cycles_off, "paging must cost cycles: {cycles_on} vs {cycles_off}");
    assert!(report_on.totals().spill_wait > 0, "cold pages must park on Watch::Spill");
    let stats = tiers_on.expect("tiering enabled");
    assert!(stats.pages_filled > 0 && stats.pages_spilled > 0, "{stats:?}");
    assert!(stats.prefetch_hits > 0, "a sequential fill pattern must prefetch: {stats:?}");

    // The same tiered run on the reference engine: identical results,
    // cycles, and tier traffic.
    let (vals, cycles, report, tiers) = run(true, EngineMode::Reference);
    assert_tiling(&report);
    assert_eq!(vals, vals_on, "reference results diverged");
    assert_eq!(cycles, cycles_on, "reference cycles diverged");
    assert_eq!(tiers, tiers_on, "reference tier stats diverged");
}

#[test]
fn spill_spans_appear_in_the_trace() {
    let mut sys = System::new();
    sys.set_trace(TraceConfig::on());
    build_spill_pipeline(&mut sys);
    sys.set_tiers(hw_tier_params()).unwrap();
    sys.run(1_000_000).expect("pipeline drains");
    let report = sys.stall_report();
    assert_tiling(&report);
    let trace = sys.trace().expect("tracing enabled");
    let spill_span_cycles: u64 = trace
        .spans()
        .filter(|s| s.kind == SpanKind::Stall(StallClass::SpillWait))
        .map(|s| s.end - s.start)
        .sum();
    assert!(spill_span_cycles > 0, "tier waits must be visible as stall:spill spans");
    assert_eq!(
        spill_span_cycles,
        report.totals().spill_wait,
        "spill spans must tile the spill-wait bucket exactly"
    );
}

#[test]
fn deadlock_exit_preserves_tiling_under_tiers() {
    let mut sys = System::new();
    build_spill_pipeline(&mut sys);
    // A sink on a queue nobody closes: the system can never finish, but
    // the tiered pipeline portion still runs (and pays spill waits).
    let stuck = sys.add_queue("never-closed");
    sys.add_module(Box::new(StreamSink::new("stuck", stuck)));
    sys.set_tiers(hw_tier_params()).unwrap();
    sys.run(u64::MAX >> 2).expect_err("deadlocks");
    let report = sys.stall_report();
    assert_tiling(&report);
    assert!(
        report.totals().spill_wait > 0,
        "spill waits before the deadlock must stay attributed:\n{report}"
    );
}
