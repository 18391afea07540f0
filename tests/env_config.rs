//! Configuration is a value: `GenesisEnv::from_lookup` is total over
//! hostile `GENESIS_*` specs (a result or an `EnvError` naming the
//! variable, never a panic), the environment owns exactly five
//! `DeviceConfig` fields, code set after `from_env` wins, and the engine
//! is selected by value with no environment access at all.

use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::core::{AccelStats, GenesisEnv};
use genesis::hw::modules::source::StreamSource;
use genesis::hw::modules::spm_updater::{SpmUpdateMode, SpmUpdater};
use genesis::hw::{EngineMode, SimError, SimStats, System, TierParams};
use genesis::sql::Catalog;
use genesis::types::{Column, DataType, Field, Schema, Table};
use proptest::prelude::*;

/// Each variable with whole entries its grammar accepts, and the keys
/// (plus a near miss) hostile entries are generated under.
const VARS: [(&str, &[&str], &[&str]); 7] = [
    ("GENESIS_ENGINE", &["fast", "reference", " FAST "], &["fast", "refrence", "block"]),
    ("GENESIS_TRACE", &["off", "/tmp/t.json"], &["off", "0"]),
    (
        "GENESIS_FAULTS",
        &[
            "dma=0.1", "device=0.05", "mem=0.01:400", "seed=7", "retries=3", "backoff=1ms:50ms",
            "backoff=100us", "fallback=on",
        ],
        &["dma", "device", "mem", "seed", "retries", "backoff", "fallback", "dmaa"],
    ),
    ("GENESIS_HOST_THREADS", &["3"], &["0", "many"]),
    ("GENESIS_DEVICES", &["3"], &["0", "many"]),
    ("GENESIS_SHARDS", &["3"], &["0", "many"]),
    (
        "GENESIS_TIERS",
        &[
            "spm=4MiB", "dram=1GiB", "host=16GiB", "page=1KiB", "pcie=8GiB/s:800ns",
            "ddr=16GiB/s:400ns", "inflight=4", "spm=1KiB",
            // Accepted, absurd, and once an overflow in the deadlock window.
            "inflight=18446744073709551615", "page=18446744073709551615",
            "ddr=1b/s:99999999999999999999s", "host=18446744073709551615",
        ],
        &["spm", "dram", "host", "page", "pcie", "ddr", "inflight", "drma"],
    ),
];

/// Unit suffixes of both grammars in every case, `on`/`off`, and none.
const UNITS: &[&str] = &[
    "", "", "", "b", "B", "kib", "KiB", "KIB", "kb", "mib", "MiB", "MB", "gib", "GiB", "GIB",
    "gb", "ns", "NS", "us", "µs", "ms", "Ms", "s", "S", "m", "min", "on", "off", "é", "塩基",
];
const ASSIGN: &[&str] = &["=", "=", "=", "=", "", "==", " = "];
const JOIN: &[&str] = &["", "", "", ":", ":", "/s:", "/s", "::"];
const SEPARATOR: &[&str] = &[",", ",", ",", ",,", " , ", ""];

/// A decimal numeral of `digits` digits (0 = none; up to 40, so well past
/// `u64` and `u128`), plain for most shapes, else negative and/or
/// fractional.
fn numeral(seed: u64, digits: usize, shape: usize) -> String {
    let mut out = String::from(if digits > 0 && shape & 5 == 5 { "-" } else { "" });
    for i in 0..digits {
        if shape & 6 == 6 && i == digits / 2 {
            out.push('.');
        }
        out.push(char::from(b'0' + (seed.rotate_left(i as u32 * 5) % 10) as u8));
    }
    out
}

/// `<numeral><unit>`, in the abstract.
type Part = (u64, usize, usize, usize);
/// One comma-separated entry in the abstract — every field is a seed or
/// an index [`render`] resolves against one variable: an even first field
/// picks a valid entry, an odd one generates
/// `<key><assign><part>[<join><part>]`.
type Entry = (usize, usize, Part, usize, Part, usize);

fn render(entries: &[Entry], valid: &[&str], keys: &[&str]) -> String {
    let keys = [keys, &["", "ключ"]].concat();
    let part = |&(seed, digits, shape, unit): &Part| numeral(seed, digits, shape) + UNITS[unit];
    let mut spec = String::new();
    for (pick, assign, first, join, second, separator) in entries {
        if pick % 2 == 0 {
            spec += valid[pick / 2 % valid.len()];
        } else {
            spec += keys[pick / 2 % keys.len()];
            spec += ASSIGN[*assign];
            spec += &part(first);
            let join = JOIN[*join];
            if !join.is_empty() {
                spec = spec + join + &part(second);
            }
        }
        spec += SEPARATOR[*separator];
    }
    spec
}

fn entries() -> impl Strategy<Value = Vec<Entry>> {
    let part = || (0u64..u64::MAX, 0usize..41, 0usize..8, 0usize..UNITS.len());
    let (assign, join, separator) = (0..ASSIGN.len(), 0..JOIN.len(), 0..SEPARATOR.len());
    proptest::collection::vec((0usize..128, assign, part(), join, part(), separator), 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any spec in any one variable parses or is rejected by name.
    #[test]
    fn hostile_specs_never_panic(entries in entries()) {
        for (var, valid, keys) in VARS {
            let spec = render(&entries, valid, keys);
            match GenesisEnv::from_lookup(|v| (v == var).then(|| spec.clone())) {
                // An accepted value must also survive the conversions an
                // entry point applies, and the arithmetic a run does on
                // them: tier admission, the deadlock window, page fills.
                Ok(env) => {
                    let cfg = env.device_config();
                    if let Some(t) = cfg.tiers {
                        let _ = paging_run(t.to_params(cfg.clock_hz));
                    }
                }
                Err(e) => prop_assert!(e.var == var, "{var}={spec:?} blamed on {}: {e}", e.var),
            }
        }
    }
}

/// A minimal run under `tiers`: random writes into two scratchpads that
/// page whenever the spec leaves less than 16 KiB of SPM. Only panics
/// matter: a working set over a bounded `host=` is a `TierOverflow`, and
/// an absurd latency ends in `CycleLimit`.
fn paging_run(tiers: TierParams) -> Option<Result<SimStats, SimError>> {
    let mut sys = System::new();
    let spms = [sys.add_spm("a", 1024, 8), sys.add_spm("b", 1024, 8)];
    sys.set_tiers(tiers).ok()?;
    let q = sys.add_queue("addr");
    let fwd = sys.add_queue("fwd");
    let addrs = [vec![0, 1000, 3, 512]];
    sys.add_module(Box::new(StreamSource::from_items("src", q, &addrs)));
    let first = SpmUpdater::new("a", spms[0], SpmUpdateMode::Random, 0, 0, q).with_forward(fwd);
    sys.add_module(Box::new(first));
    sys.add_module(Box::new(SpmUpdater::new("b", spms[1], SpmUpdateMode::Random, 0, 0, fwd)));
    Some(sys.run(3_000))
}

fn all_seven(var: &str) -> Option<String> {
    let value = match var {
        "GENESIS_ENGINE" => "reference",
        "GENESIS_TRACE" => "/tmp/env_config_trace.json",
        "GENESIS_FAULTS" => "dma=0.25,seed=9",
        "GENESIS_HOST_THREADS" => "7",
        "GENESIS_DEVICES" => "4",
        "GENESIS_SHARDS" => "8",
        "GENESIS_TIERS" => "spm=64KiB,dram=1GiB",
        _ => return None,
    };
    Some(value.to_owned())
}

#[test]
fn environment_owns_exactly_five_device_fields() {
    let env = GenesisEnv::from_lookup(all_seven).unwrap();
    let cfg = env.device_config();
    let default = DeviceConfig::default();
    assert_ne!(cfg.engine, default.engine);
    assert_ne!(cfg.trace, default.trace);
    assert_ne!(cfg.faults, default.faults);
    assert_ne!(cfg.host_threads, default.host_threads);
    assert_ne!(cfg.tiers, default.tiers);
    let rest = DeviceConfig {
        engine: default.engine,
        trace: default.trace.clone(),
        faults: default.faults.clone(),
        host_threads: default.host_threads,
        tiers: default.tiers,
        ..cfg
    };
    assert_eq!(rest, default, "a sixth field follows the environment");
    // The other two variables size the server, not the device.
    assert_eq!((env.devices, env.shards), (Some(4), Some(8)));
}

/// `watchdog` was parsed, stored and read by nothing; it is rejected by
/// name like any unknown key, not accepted and ignored (no key is close
/// enough for a did-you-mean).
#[test]
fn removed_watchdog_key_is_an_unknown_key() {
    let spec = |v: &str| (v == "GENESIS_FAULTS").then(|| "dma=0.1,watchdog=1s".to_owned());
    let err = GenesisEnv::from_lookup(spec).unwrap_err();
    assert_eq!(err.var, "GENESIS_FAULTS");
    assert!(err.reason.contains("unknown fault key `watchdog`"), "{}", err.reason);
}

#[test]
fn code_set_after_the_environment_wins() {
    let cfg = GenesisEnv::from_lookup(all_seven).unwrap().device_config();
    assert_eq!(cfg.resolved_host_threads(), 7);
    assert_eq!(cfg.with_host_threads(1).resolved_host_threads(), 1);
}

#[test]
fn engine_is_selected_by_value() {
    let keys: Vec<u32> = (0..2_000u32).map(|i| i * 7 % 64).collect();
    let schema = Schema::new(vec![Field::new("K", DataType::U32)]);
    let mut catalog = Catalog::new();
    catalog.register("T", Table::from_columns(schema, vec![Column::U32(keys)]).unwrap());
    let run = |engine| {
        Compiler::new(DeviceConfig::small().with_engine(engine))
            .compile_sql("INSERT INTO O SELECT K, COUNT(*) FROM T GROUP BY K ORDER BY K", &catalog)
            .unwrap()
            .execute_replicated(&catalog, 2)
            .unwrap()
    };
    let (fast_table, fast) = run(EngineMode::Fast);
    let (reference_table, reference) = run(EngineMode::Reference);
    assert_eq!(fast_table.num_rows(), 64);
    assert_eq!(fast_table, reference_table);
    // The stall split and the tick census are the engines' designed
    // differences — the reference engine never parks, so all its
    // module-cycles are active and it ticks every unfinished module every
    // cycle — and they show the selection took effect. With the stalls folded into one
    // bucket and the ticks set aside, every statistic agrees.
    let parked = |s: &AccelStats| {
        s.input_starved_cycles + s.backpressured_cycles + s.memory_wait_cycles + s.spill_wait_cycles
    };
    assert_eq!(parked(&reference), 0);
    assert!(parked(&fast) > 0, "the fast engine parks: {fast}");
    assert!(fast.module_ticks < reference.module_ticks, "the fast engine skips parked ticks");
    let folded = |s: AccelStats| AccelStats {
        module_ticks: 0,
        active_cycles: s.active_cycles + parked(&s),
        input_starved_cycles: 0,
        backpressured_cycles: 0,
        memory_wait_cycles: 0,
        spill_wait_cycles: 0,
        ..s
    };
    assert_eq!(folded(fast), folded(reference));
}
