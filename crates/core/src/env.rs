//! Unified `GENESIS_*` environment configuration.
//!
//! Seven environment variables tune a Genesis process without code changes:
//! `GENESIS_ENGINE`, `GENESIS_TRACE`, `GENESIS_FAULTS`,
//! `GENESIS_HOST_THREADS`, `GENESIS_DEVICES`, `GENESIS_SHARDS` and
//! `GENESIS_TIERS`. [`GenesisEnv::load`] is the one place the library
//! reads them: it returns either a fully validated snapshot or a single
//! [`EnvError`] naming the offending variable, and every other
//! constructor ([`DeviceConfig::default`], `ServerConfig::default`,
//! `System::with_memory`) is a pure function of its arguments. An entry
//! point opts in with [`DeviceConfig::from_env`] /
//! [`crate::serve::ServerConfig::from_env`]; the environment is read
//! once there, and whatever the code sets afterwards wins.
//! [`GenesisEnv::help`] produces the knob reference for CLI `--help`
//! output. The [`suggest`] helper powers the did-you-mean hints attached
//! to typo'd knob values here, to unknown `GENESIS_FAULTS` keys, and to
//! unknown/misspelled column references in plan diagnostics
//! ([`crate::error::CoreError::Plan`]).

use crate::device::{DeviceConfig, TierConfig};
use crate::fault::FaultConfig;
use genesis_hw::EngineMode;
use genesis_obs::TraceConfig;
use std::fmt;

/// A malformed `GENESIS_*` environment variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable name (e.g. `GENESIS_ENGINE`).
    pub var: &'static str,
    /// The rejected value.
    pub value: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?}: {} (see GenesisEnv::help() for the knob reference)",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for EnvError {}

/// Closest candidate to a misspelled `input`, for did-you-mean
/// diagnostics: the candidate with the smallest case-insensitive edit
/// distance, provided that distance is small relative to the input length
/// (≤ 1 for short names, ≤ ⌈len/3⌉ otherwise). Returns `None` when
/// nothing is plausibly close — a wild guess is worse than no hint.
#[must_use]
pub fn suggest<'a>(input: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<String> {
    let input_lc = input.to_ascii_lowercase();
    let budget = input_lc.chars().count().div_ceil(3);
    let budget = budget.max(1);
    let mut best: Option<(usize, &str)> = None;
    for cand in candidates {
        let d = edit_distance(&input_lc, &cand.to_ascii_lowercase());
        if d <= budget && best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, cand));
        }
    }
    best.map(|(_, c)| c.to_owned())
}

/// Plain Levenshtein distance over chars (names here are short, so the
/// O(n·m) dynamic program is fine).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// A validated snapshot of the `GENESIS_*` environment.
#[derive(Debug, Clone, PartialEq)]
pub struct GenesisEnv {
    /// Simulation engine selection (`GENESIS_ENGINE`): the fast
    /// (park/wake) engine by default, the naive reference engine for
    /// differential debugging.
    pub engine: EngineMode,
    /// Tracing knob (`GENESIS_TRACE`): off, or Chrome-trace export path.
    pub trace: TraceConfig,
    /// Fault injection and recovery policy (`GENESIS_FAULTS`).
    pub faults: FaultConfig,
    /// Host worker-thread override (`GENESIS_HOST_THREADS`); `None` means
    /// auto-detect.
    pub host_threads: Option<usize>,
    /// Simulated device-pool size for [`crate::serve::GenesisServer`]
    /// (`GENESIS_DEVICES`); `None` means the server's own default (one
    /// device).
    pub devices: Option<usize>,
    /// Scatter-gather shard count for [`crate::serve::GenesisServer`]
    /// (`GENESIS_SHARDS`): each submitted job is split into up to this
    /// many (chromosome, `PSIZE`-window)-aligned shard jobs fanned out
    /// across the device pool; `None` means unsharded (one shard).
    pub shards: Option<usize>,
    /// Tiered-memory model (`GENESIS_TIERS`); `None` means scratchpads
    /// stay fully on chip.
    pub tiers: Option<TierConfig>,
}

impl GenesisEnv {
    /// Loads and validates the `GENESIS_*` variables from the process
    /// environment.
    ///
    /// # Errors
    ///
    /// The first [`EnvError`] encountered, naming the offending variable —
    /// a misconfigured experiment should fail loudly at startup, not
    /// silently run with defaults.
    pub fn load() -> Result<GenesisEnv, EnvError> {
        GenesisEnv::from_lookup(|var| std::env::var(var).ok())
    }

    /// Like [`GenesisEnv::load`] but reading variables through `lookup`
    /// (tests inject maps instead of mutating the process environment).
    ///
    /// # Errors
    ///
    /// As for [`GenesisEnv::load`].
    pub fn from_lookup(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<GenesisEnv, EnvError> {
        Ok(GenesisEnv {
            engine: parse_engine(lookup("GENESIS_ENGINE"))?,
            trace: parse_trace(lookup("GENESIS_TRACE")),
            faults: parse_faults(lookup("GENESIS_FAULTS"))?,
            host_threads: parse_count(lookup("GENESIS_HOST_THREADS"), "GENESIS_HOST_THREADS")?,
            devices: parse_count(lookup("GENESIS_DEVICES"), "GENESIS_DEVICES")?,
            shards: parse_count(lookup("GENESIS_SHARDS"), "GENESIS_SHARDS")?,
            tiers: parse_tiers(lookup("GENESIS_TIERS"))?,
        })
    }

    /// A [`DeviceConfig`] with this environment's engine, trace, fault,
    /// host-thread and tier settings over the F1-like defaults.
    #[must_use]
    pub fn device_config(&self) -> DeviceConfig {
        DeviceConfig {
            engine: self.engine,
            trace: self.trace.clone(),
            faults: self.faults.clone(),
            host_threads: self.host_threads.unwrap_or(0),
            tiers: self.tiers,
            ..DeviceConfig::default()
        }
    }

    /// The knob reference, one block per variable — print this from CLI
    /// `--help` or after an [`EnvError`].
    #[must_use]
    pub fn help() -> String {
        "GENESIS_* environment variables:\n\
         \n\
         GENESIS_ENGINE        Simulation engine. `fast` (default: parks\n\
         \x20                     idle modules, skips all-idle cycles) or\n\
         \x20                     `reference` (naive tick-everything, for\n\
         \x20                     differential debugging). Bit-identical.\n\
         GENESIS_TRACE         Unset/empty/`0`/`off` = no tracing; any other\n\
         \x20                     value enables tracing and is the Chrome-trace\n\
         \x20                     output path (plus `<path>.stalls.txt`).\n\
         GENESIS_FAULTS        Fault injection spec: comma-separated\n\
         \x20                     `key=value` over the recovering baseline,\n\
         \x20                     e.g. `dma=0.1,device=0.05,mem=0.01:400,seed=7`.\n\
         \x20                     Keys: dma, device, mem, seed, retries,\n\
         \x20                     backoff, fallback. `0`/`off` = inert.\n\
         GENESIS_HOST_THREADS  Positive integer = host worker threads for\n\
         \x20                     parallel batch simulation; unset or `0` =\n\
         \x20                     auto-detect (one per available core).\n\
         GENESIS_DEVICES       Positive integer = simulated accelerator\n\
         \x20                     devices in the GenesisServer pool; unset or\n\
         \x20                     `0` = one device.\n\
         GENESIS_SHARDS        Positive integer = scatter-gather shards per\n\
         \x20                     GenesisServer job, split on (chromosome,\n\
         \x20                     PSIZE-window) boundaries and merged in\n\
         \x20                     partition order; unset or `0` = unsharded.\n\
         GENESIS_TIERS         Tiered scratchpad memory: comma-separated\n\
         \x20                     `key=value` in physical units, e.g.\n\
         \x20                     `spm=4MiB,dram=1GiB,pcie=8GiB/s:800ns`.\n\
         \x20                     Keys: spm, dram, host, page (sizes with\n\
         \x20                     B/KiB/MiB/GiB suffixes), pcie and ddr\n\
         \x20                     (`<bandwidth>/s:<latency>` links), inflight\n\
         \x20                     (max outstanding page transfers). Omitted\n\
         \x20                     keys take PCIe-3-ish defaults; unset/empty/\n\
         \x20                     `0`/`off` = no tiering (all state on chip).\n"
            .to_owned()
    }
}

fn parse_engine(v: Option<String>) -> Result<EngineMode, EnvError> {
    let t = v.as_deref().unwrap_or("").trim();
    EngineMode::from_name(t).ok_or_else(|| {
        let mut reason = "expected `fast` or `reference`".to_owned();
        if let Some(s) = suggest(t, ["fast", "reference"]) {
            reason.push_str(&format!(" (did you mean `{s}`?)"));
        }
        EnvError { var: "GENESIS_ENGINE", value: v.clone().unwrap_or_default(), reason }
    })
}

fn parse_trace(v: Option<String>) -> TraceConfig {
    match v {
        Some(v) => {
            let t = v.trim();
            if t.is_empty() || t == "0" || t.eq_ignore_ascii_case("off") {
                TraceConfig::off()
            } else {
                TraceConfig::to_path(t)
            }
        }
        None => TraceConfig::off(),
    }
}

fn parse_faults(v: Option<String>) -> Result<FaultConfig, EnvError> {
    let Some(v) = v else { return Ok(FaultConfig::default()) };
    FaultConfig::from_spec(&v).map_err(|reason| EnvError {
        var: "GENESIS_FAULTS",
        value: v,
        reason,
    })
}

fn tier_err(value: &str, reason: impl Into<String>) -> EnvError {
    EnvError { var: "GENESIS_TIERS", value: value.to_owned(), reason: reason.into() }
}

/// Parses a byte size with an optional binary-unit suffix (`64KiB`,
/// `4MiB`, `1GiB`, bare bytes otherwise). `KB`/`MB`/`GB` are accepted as
/// their binary siblings — sizes here describe memories, where powers of
/// two are what anyone means.
fn parse_size(t: &str) -> Option<u64> {
    let t = t.trim();
    let lower = t.to_ascii_lowercase();
    let (digits, shift) = if let Some(d) = lower.strip_suffix("gib").or(lower.strip_suffix("gb")) {
        (d, 30)
    } else if let Some(d) = lower.strip_suffix("mib").or(lower.strip_suffix("mb")) {
        (d, 20)
    } else if let Some(d) = lower.strip_suffix("kib").or(lower.strip_suffix("kb")) {
        (d, 10)
    } else {
        (lower.strip_suffix('b').unwrap_or(&lower), 0)
    };
    let n: u64 = digits.trim().parse().ok()?;
    n.checked_mul(1 << shift)
}

/// Parses a `<bandwidth>/s:<latency>` link spec (`8GiB/s:800ns`) into
/// bytes-per-second and a latency duration. Latency suffixes: `ns`, `us`,
/// `ms`, `s`.
fn parse_link(t: &str) -> Option<(f64, std::time::Duration)> {
    let (bw, lat) = t.split_once(':')?;
    let bw_bytes = parse_size(bw.trim().strip_suffix("/s")?)? as f64;
    let lat = lat.trim().to_ascii_lowercase();
    let (digits, scale_ns) = if let Some(d) = lat.strip_suffix("ns") {
        (d, 1.0)
    } else if let Some(d) = lat.strip_suffix("us") {
        (d, 1e3)
    } else if let Some(d) = lat.strip_suffix("ms") {
        (d, 1e6)
    } else if let Some(d) = lat.strip_suffix('s') {
        (d, 1e9)
    } else {
        return None;
    };
    let n: f64 = digits.trim().parse().ok()?;
    Some((bw_bytes, std::time::Duration::from_nanos((n * scale_ns) as u64)))
}

/// Parses the `GENESIS_TIERS` spec: comma-separated `key=value` in
/// physical units over [`TierConfig::default`]. Unset/empty/`0`/`off`
/// disables tiering entirely.
fn parse_tiers(v: Option<String>) -> Result<Option<TierConfig>, EnvError> {
    let Some(v) = v else { return Ok(None) };
    let t = v.trim();
    if t.is_empty() || t == "0" || t.eq_ignore_ascii_case("off") {
        return Ok(None);
    }
    const KEYS: [&str; 7] = ["spm", "dram", "host", "page", "pcie", "ddr", "inflight"];
    let mut cfg = TierConfig::default();
    for part in t.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some((key, val)) = part.split_once('=') else {
            return Err(tier_err(&v, format!("`{part}` is not a key=value pair")));
        };
        let (key, val) = (key.trim().to_ascii_lowercase(), val.trim());
        let bad_size = || {
            tier_err(&v, format!("`{key}={val}`: expected a size like `4MiB` or `1GiB`"))
        };
        match key.as_str() {
            "spm" => cfg.spm_bytes = parse_size(val).ok_or_else(bad_size)?,
            "dram" => cfg.dram_bytes = parse_size(val).ok_or_else(bad_size)?,
            "host" => cfg.host_bytes = parse_size(val).ok_or_else(bad_size)?,
            "page" => cfg.page_bytes = parse_size(val).ok_or_else(bad_size)?,
            "pcie" | "ddr" => {
                let (bw, lat) = parse_link(val).ok_or_else(|| {
                    tier_err(
                        &v,
                        format!(
                            "`{key}={val}`: expected `<bandwidth>/s:<latency>` \
                             like `8GiB/s:800ns`"
                        ),
                    )
                })?;
                if key == "pcie" {
                    (cfg.pcie_bandwidth, cfg.pcie_latency) = (bw, lat);
                } else {
                    (cfg.dram_bandwidth, cfg.dram_latency) = (bw, lat);
                }
            }
            "inflight" => {
                cfg.max_inflight = val.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(
                    || tier_err(&v, format!("`{key}={val}`: expected a positive integer")),
                )?;
            }
            other => {
                let mut reason = format!("unknown key `{other}`");
                if let Some(s) = suggest(other, KEYS) {
                    reason.push_str(&format!(" (did you mean `{s}`?)"));
                }
                return Err(tier_err(&v, reason));
            }
        }
    }
    Ok(Some(cfg))
}

/// Shared parser for the "positive integer, `0`/unset/empty = auto"
/// count knobs (`GENESIS_HOST_THREADS`, `GENESIS_DEVICES`).
fn parse_count(v: Option<String>, var: &'static str) -> Result<Option<usize>, EnvError> {
    let Some(v) = v else { return Ok(None) };
    let t = v.trim();
    if t.is_empty() {
        return Ok(None);
    }
    match t.parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(EnvError {
            var,
            value: v,
            reason: "expected a non-negative integer count".to_owned(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn env_of(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let map: HashMap<String, String> =
            pairs.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect();
        move |var| map.get(var).cloned()
    }

    #[test]
    fn empty_environment_is_default() {
        let env = GenesisEnv::from_lookup(|_| None).unwrap();
        assert_eq!(env.engine, EngineMode::Fast);
        assert!(!env.trace.enabled);
        assert_eq!(env.faults, FaultConfig::default());
        assert_eq!(env.host_threads, None);
        assert_eq!(env.devices, None);
        assert_eq!(env.shards, None);
        assert_eq!(env.tiers, None);
        let cfg = env.device_config();
        assert_eq!(cfg.host_threads, 0);
        assert_eq!(cfg.tiers, None);
    }

    #[test]
    fn all_knobs_parse_together() {
        let env = GenesisEnv::from_lookup(env_of(&[
            ("GENESIS_ENGINE", "Reference"),
            ("GENESIS_TRACE", "/tmp/trace.json"),
            ("GENESIS_FAULTS", "dma=0.25,seed=9"),
            ("GENESIS_HOST_THREADS", "3"),
            ("GENESIS_DEVICES", "4"),
            ("GENESIS_SHARDS", "8"),
        ]))
        .unwrap();
        assert_eq!(env.engine, EngineMode::Reference);
        assert!(env.trace.enabled);
        assert_eq!(env.trace.path.as_deref(), Some(std::path::Path::new("/tmp/trace.json")));
        assert_eq!(env.faults.seed, 9);
        assert_eq!(env.host_threads, Some(3));
        assert_eq!(env.devices, Some(4));
        assert_eq!(env.shards, Some(8));
        let cfg = env.device_config();
        assert_eq!(cfg.host_threads, 3);
        assert_eq!(cfg.engine, EngineMode::Reference);
    }

    #[test]
    fn trace_off_values_disable() {
        for off in ["", "0", "off", " OFF "] {
            let env = GenesisEnv::from_lookup(env_of(&[("GENESIS_TRACE", off)])).unwrap();
            assert_eq!(env.trace, TraceConfig::off(), "GENESIS_TRACE={off:?}");
        }
    }

    #[test]
    fn errors_name_the_variable() {
        let err =
            GenesisEnv::from_lookup(env_of(&[("GENESIS_ENGINE", "quantum")])).unwrap_err();
        assert_eq!(err.var, "GENESIS_ENGINE");
        assert!(err.to_string().contains("GENESIS_ENGINE"));
        assert!(err.to_string().contains("quantum"));

        let err =
            GenesisEnv::from_lookup(env_of(&[("GENESIS_FAULTS", "dma=banana")])).unwrap_err();
        assert_eq!(err.var, "GENESIS_FAULTS");

        let err = GenesisEnv::from_lookup(env_of(&[("GENESIS_HOST_THREADS", "-2")]))
            .unwrap_err();
        assert_eq!(err.var, "GENESIS_HOST_THREADS");

        let err = GenesisEnv::from_lookup(env_of(&[("GENESIS_DEVICES", "many")]))
            .unwrap_err();
        assert_eq!(err.var, "GENESIS_DEVICES");
    }

    #[test]
    fn engine_typo_gets_a_suggestion() {
        let err =
            GenesisEnv::from_lookup(env_of(&[("GENESIS_ENGINE", "referense")])).unwrap_err();
        assert!(err.reason.contains("did you mean `reference`"), "got: {}", err.reason);
    }

    #[test]
    fn retired_engine_names_are_rejected() {
        let env = GenesisEnv::from_lookup(env_of(&[("GENESIS_ENGINE", " FAST ")])).unwrap();
        assert_eq!(env.engine, EngineMode::Fast);
        for retired in ["block", "event", "event-driven"] {
            let err = GenesisEnv::from_lookup(env_of(&[("GENESIS_ENGINE", retired)]))
                .unwrap_err();
            assert_eq!(err.var, "GENESIS_ENGINE");
            assert!(
                err.reason.contains("`fast`") && err.reason.contains("`reference`"),
                "{retired}: {}",
                err.reason
            );
            // No hint for a retired name: nothing accepted is close to it.
            assert!(!err.reason.contains("did you mean"), "{retired}: {}", err.reason);
        }
        let err = GenesisEnv::from_lookup(env_of(&[("GENESIS_ENGINE", "fsat")])).unwrap_err();
        assert!(err.reason.contains("did you mean `fast`"), "got: {}", err.reason);
    }

    #[test]
    fn suggest_finds_close_names_only() {
        let cols = ["QUAL", "FLAG", "POS"];
        assert_eq!(suggest("qaul", cols), Some("QUAL".to_owned()));
        assert_eq!(suggest("FLAGS", cols), Some("FLAG".to_owned()));
        assert_eq!(suggest("zebra", cols), None);
        assert_eq!(suggest("", []), None);
    }

    #[test]
    fn tiers_spec_parses_physical_units() {
        let env = GenesisEnv::from_lookup(env_of(&[(
            "GENESIS_TIERS",
            "spm=4MiB,dram=1GiB,pcie=8GiB/s:800ns",
        )]))
        .unwrap();
        let t = env.tiers.expect("tiers enabled");
        assert_eq!(t.spm_bytes, 4 << 20);
        assert_eq!(t.dram_bytes, 1 << 30);
        assert!((t.pcie_bandwidth - (8u64 << 30) as f64).abs() < 1.0);
        assert_eq!(t.pcie_latency, std::time::Duration::from_nanos(800));
        assert_eq!(env.device_config().tiers, Some(t));

        let env = GenesisEnv::from_lookup(env_of(&[(
            "GENESIS_TIERS",
            "spm=64KiB,host=16GiB,page=1KiB,ddr=16GiB/s:400ns,inflight=4",
        )]))
        .unwrap();
        let t = env.tiers.unwrap();
        assert_eq!(t.spm_bytes, 64 << 10);
        assert_eq!(t.host_bytes, 16 << 30);
        assert_eq!(t.page_bytes, 1024);
        assert_eq!(t.dram_latency, std::time::Duration::from_nanos(400));
        assert_eq!(t.max_inflight, 4);
    }

    #[test]
    fn tiers_off_values_disable() {
        for off in ["", "0", "off", "OFF"] {
            let env = GenesisEnv::from_lookup(env_of(&[("GENESIS_TIERS", off)])).unwrap();
            assert_eq!(env.tiers, None, "GENESIS_TIERS={off:?}");
        }
    }

    #[test]
    fn tiers_errors_name_the_variable_and_suggest() {
        let err = GenesisEnv::from_lookup(env_of(&[("GENESIS_TIERS", "spm=banana")]))
            .unwrap_err();
        assert_eq!(err.var, "GENESIS_TIERS");
        assert!(err.reason.contains("spm=banana"), "got: {}", err.reason);

        let err = GenesisEnv::from_lookup(env_of(&[("GENESIS_TIERS", "drma=1GiB")]))
            .unwrap_err();
        assert!(err.reason.contains("did you mean `dram`"), "got: {}", err.reason);

        let err = GenesisEnv::from_lookup(env_of(&[("GENESIS_TIERS", "pcie=8GiB/s")]))
            .unwrap_err();
        assert!(err.reason.contains("800ns"), "got: {}", err.reason);
    }

    #[test]
    fn size_overflow_is_an_error_not_a_wrap() {
        // 2^34 GiB = 2^64 bytes: one past u64. A shift would wrap it to 0.
        for (spec, hint) in [
            ("spm=17179869184GiB", "expected a size like `4MiB`"),
            ("dram=17179869184GiB", "expected a size like `4MiB`"),
            ("host=17179869184GiB", "expected a size like `4MiB`"),
            ("page=18014398509481984KiB", "expected a size like `4MiB`"),
            ("pcie=17179869184GiB/s:800ns", "like `8GiB/s:800ns`"),
            ("ddr=17592186044416MiB/s:400ns", "like `8GiB/s:800ns`"),
        ] {
            let err = GenesisEnv::from_lookup(env_of(&[("GENESIS_TIERS", spec)])).unwrap_err();
            assert_eq!(err.var, "GENESIS_TIERS", "{spec}");
            assert!(err.reason.contains(hint), "{spec}: {}", err.reason);
        }
        // The largest size that fits still parses exactly.
        let env =
            GenesisEnv::from_lookup(env_of(&[("GENESIS_TIERS", "spm=17179869183GiB")])).unwrap();
        assert_eq!(env.tiers.unwrap().spm_bytes, 17_179_869_183 << 30);
    }

    #[test]
    fn out_of_range_fault_durations_are_errors_not_panics() {
        let faults = |spec| GenesisEnv::from_lookup(env_of(&[("GENESIS_FAULTS", spec)]));
        // The first is too large for `Duration`; the other two fit, but
        // their implied cap (100 x base) does not.
        for spec in [
            "backoff=1000000000000000000000000000000s",
            "backoff=1000000000000000000s",
            "backoff=300000000000000000m",
        ] {
            let err = faults(spec).unwrap_err();
            assert_eq!(err.var, "GENESIS_FAULTS", "{spec}");
            assert!(err.reason.contains("out of range"), "{spec}: {}", err.reason);
        }
        // An explicit cap needs no multiply, and the largest retry budget
        // parses (`run_batches` counts attempts in u64).
        assert!(faults("backoff=1000000000000000000s:1s").is_ok());
        assert_eq!(faults("retries=4294967295").unwrap().faults.max_retries, u32::MAX);
    }

    #[test]
    fn zero_threads_means_auto() {
        let env =
            GenesisEnv::from_lookup(env_of(&[("GENESIS_HOST_THREADS", "0")])).unwrap();
        assert_eq!(env.host_threads, None);
    }

    #[test]
    fn help_covers_every_variable() {
        let help = GenesisEnv::help();
        for var in [
            "GENESIS_ENGINE",
            "GENESIS_TRACE",
            "GENESIS_FAULTS",
            "GENESIS_HOST_THREADS",
            "GENESIS_DEVICES",
            "GENESIS_SHARDS",
            "GENESIS_TIERS",
        ] {
            assert!(help.contains(var), "help missing {var}");
        }
        // Exactly the seven above: a removed knob must leave the help too.
        assert_eq!(help.matches("GENESIS_").count(), 1 + 7, "{help}");
    }
}
