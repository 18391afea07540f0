//! Deterministic fault injection and the host's fault-tolerance policy.
//!
//! A real deployment of the paper's host API sits between flaky hardware
//! and callers that expect exact results: DMA transfers drop, a device
//! partition job dies transiently, memory latency spikes under refresh
//! pressure. This module models those failures *deterministically* — every
//! fault decision is a pure function of a seed and stable indices (batch
//! and job index, a served shard's dispatch slot, attempt number), never
//! of wall-clock time or thread scheduling — so any observed failure
//! schedule replays exactly, at any host thread count.
//!
//! The runtime policy layered on top (capped exponential backoff, which is
//! modeled time, with a per-batch retry budget, then graceful degradation
//! to the software oracle) lives in `device::run_batches`; the bound on how
//! long a caller waits is
//! [`Request::with_deadline`](crate::serve::Request::with_deadline).
//!
//! Configure via [`DeviceConfig::faults`](crate::DeviceConfig), in code or
//! from a spec such as `dma=0.1,device=0.05,mem=0.01:400,seed=7`
//! ([`FaultConfig::from_spec`], which is what `GENESIS_FAULTS` holds).

use genesis_hw::memory::{mix64, LatencyFaults};
use genesis_hw::MemoryConfig;
use std::fmt;
use std::time::Duration;

/// Fault-injection rates and recovery policy for one device.
///
/// The default configuration is fully inert: no injected faults, no
/// retries, no fallback — behavior is bit-identical to a build without
/// this module. [`FaultConfig::from_spec`] (used by `GENESIS_FAULTS`)
/// turns recovery on with sensible defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for every deterministic fault stream.
    pub seed: u64,
    /// Probability (parts per million) that a batch's DMA transfer fails
    /// on a given attempt.
    pub dma_fail_ppm: u32,
    /// Probability (ppm) that a partition job suffers a transient
    /// device-side fault on a given attempt.
    pub device_fail_ppm: u32,
    /// Probability (ppm) that an accepted device-memory read spikes.
    pub mem_spike_ppm: u32,
    /// Extra cycles a spiked read takes.
    pub mem_spike_cycles: u64,
    /// Retry budget per batch: a batch is attempted `1 + max_retries`
    /// times before the runtime degrades or gives up.
    pub max_retries: u32,
    /// First retry backoff; doubles per attempt up to `backoff_cap`.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff pause.
    pub backoff_cap: Duration,
    /// When `true`, a batch that exhausts its retry budget is re-executed
    /// on the software oracle instead of failing the run.
    pub fallback: bool,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0,
            dma_fail_ppm: 0,
            device_fail_ppm: 0,
            mem_spike_ppm: 0,
            mem_spike_cycles: 0,
            max_retries: 0,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            fallback: false,
        }
    }
}

impl FaultConfig {
    /// Recovery-enabled baseline with no injected faults: 3 retries,
    /// 100 µs–10 ms backoff, fallback on. The starting point `from_spec`
    /// applies its overrides to.
    #[must_use]
    pub fn recovering() -> FaultConfig {
        FaultConfig {
            seed: 42,
            max_retries: 3,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(10),
            fallback: true,
            ..FaultConfig::default()
        }
    }

    /// Parses a fault spec: comma-separated `key=value` entries over the
    /// [`FaultConfig::recovering`] baseline.
    ///
    /// | key | value | meaning |
    /// |-----|-------|---------|
    /// | `dma` | probability `0..=1` | DMA transfer failure per batch attempt |
    /// | `device` | probability | transient fault per partition job attempt |
    /// | `mem` | `p[:extra]` | read-latency spike probability, extra cycles (default 400) |
    /// | `seed` | integer | fault-stream seed |
    /// | `retries` | integer | retry budget per batch |
    /// | `backoff` | `base[:cap]` | durations like `100us`, `5ms`, `1s` |
    /// | `fallback` | `on`/`off` | degrade to the software oracle |
    ///
    /// The whole spec may also be empty, `0`, or `off` for the inert
    /// default.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn from_spec(spec: &str) -> Result<FaultConfig, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "0" || spec.eq_ignore_ascii_case("off") {
            return Ok(FaultConfig::default());
        }
        let mut cfg = FaultConfig::recovering();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("`{entry}`: expected key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "dma" => cfg.dma_fail_ppm = parse_ppm(value)?,
                "device" => cfg.device_fail_ppm = parse_ppm(value)?,
                "mem" => {
                    let (p, extra) = match value.split_once(':') {
                        Some((p, extra)) => (
                            p,
                            extra
                                .trim()
                                .parse::<u32>()
                                .map(u64::from)
                                .map_err(|_| format!("`{extra}`: expected spike cycles"))?,
                        ),
                        None => (value, 400),
                    };
                    cfg.mem_spike_ppm = parse_ppm(p)?;
                    cfg.mem_spike_cycles = extra;
                }
                "seed" => {
                    cfg.seed =
                        value.parse().map_err(|_| format!("`{value}`: expected integer seed"))?;
                }
                "retries" => {
                    cfg.max_retries =
                        value.parse().map_err(|_| format!("`{value}`: expected retry count"))?;
                }
                "backoff" => match value.split_once(':') {
                    Some((base, cap)) => {
                        cfg.backoff_base = parse_duration(base)?;
                        cfg.backoff_cap = parse_duration(cap)?;
                    }
                    None => {
                        cfg.backoff_base = parse_duration(value)?;
                        cfg.backoff_cap = cfg.backoff_base.checked_mul(100).ok_or_else(|| {
                            format!("`{value}`: implied cap (100 x base) out of range")
                        })?;
                    }
                },
                "fallback" => cfg.fallback = parse_switch(value)?,
                _ => {
                    let known =
                        ["dma", "device", "mem", "seed", "retries", "backoff", "fallback"];
                    let mut msg = format!("unknown fault key `{key}`");
                    if let Some(s) = crate::env::suggest(key, known) {
                        msg.push_str(&format!(" (did you mean `{s}`?)"));
                    }
                    return Err(msg);
                }
            }
        }
        Ok(cfg)
    }

    /// True when any fault injection or recovery behavior is configured —
    /// the inert default returns `false` and the runtime takes the exact
    /// pre-fault-plane code path.
    #[must_use]
    pub fn is_active(&self) -> bool {
        *self != FaultConfig::default()
    }

    /// True when any fault *injection* rate is non-zero.
    #[must_use]
    pub fn injects(&self) -> bool {
        self.dma_fail_ppm > 0 || self.device_fail_ppm > 0 || self.mem_spike_ppm > 0
    }

    /// The memory-latency fault overlay for the hardware model, when
    /// spikes are configured. Offset by `(batch, attempt)` so retrying a
    /// batch re-rolls its spike schedule.
    #[must_use]
    pub fn mem_faults(&self, batch: u64, attempt: u32) -> Option<LatencyFaults> {
        if self.mem_spike_ppm == 0 {
            return None;
        }
        Some(LatencyFaults {
            spike_ppm: self.mem_spike_ppm,
            extra_cycles: self.mem_spike_cycles,
            seed: mix64(self.seed ^ DOMAIN_MEM ^ batch.wrapping_mul(2).wrapping_add(u64::from(attempt)).wrapping_mul(K)),
        })
    }

    /// Applies [`FaultConfig::mem_faults`] to a memory configuration.
    pub fn overlay_mem(&self, mem: &mut MemoryConfig, batch: u64, attempt: u32) {
        if let Some(f) = self.mem_faults(batch, attempt) {
            mem.faults = Some(f);
        }
    }

    /// Rolls the injected-DMA-fault die for `(batch, attempt)`. Returns
    /// `None` for a clean transfer, otherwise the fault flavor.
    #[must_use]
    pub fn dma_fault(&self, batch: u64, attempt: u32) -> Option<DmaFault> {
        let h = self.roll(DOMAIN_DMA, batch, attempt);
        if h % 1_000_000 >= u64::from(self.dma_fail_ppm) {
            return None;
        }
        // An independent bit picks the flavor: hard transfer error or a
        // timed-out transfer.
        Some(if (h >> 32) & 1 == 0 { DmaFault::Error } else { DmaFault::Timeout })
    }

    /// Rolls the transient-device-fault die for `(job, attempt)`.
    #[must_use]
    pub fn device_fault(&self, job: u64, attempt: u32) -> bool {
        self.roll(DOMAIN_DEVICE, job, attempt) % 1_000_000 < u64::from(self.device_fail_ppm)
    }

    /// Backoff pause before retry `attempt` (1-based): capped exponential,
    /// `base * 2^(attempt-1)` clamped to `backoff_cap`.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        if self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let pause = self.backoff_base.saturating_mul(1u32 << attempt.saturating_sub(1).min(20));
        pause.min(self.backoff_cap.max(self.backoff_base))
    }

    fn roll(&self, domain: u64, index: u64, attempt: u32) -> u64 {
        mix64(
            self.seed
                ^ domain
                ^ index.wrapping_mul(K).wrapping_add(u64::from(attempt).wrapping_mul(0xD6E8_FEB8_6659_FD93)),
        )
    }
}

/// Flavor of an injected DMA failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaFault {
    /// The transfer completed with an error status.
    Error,
    /// The transfer never completed within the link's deadline.
    Timeout,
}

const K: u64 = 0x9E37_79B9_7F4A_7C15;
const DOMAIN_DMA: u64 = 0x1BD1_1BDA_A9FC_1A22;
const DOMAIN_DEVICE: u64 = 0x60BE_E2BE_E120_FC15;
const DOMAIN_MEM: u64 = 0xA3EC_647E_93C1_4A6D;

fn parse_ppm(s: &str) -> Result<u32, String> {
    let p: f64 = s.trim().parse().map_err(|_| format!("`{s}`: expected probability 0..=1"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("`{s}`: probability out of range 0..=1"));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok((p * 1_000_000.0).round() as u32)
}

fn parse_switch(s: &str) -> Result<bool, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "on" | "true" | "1" | "yes" => Ok(true),
        "off" | "false" | "0" | "no" => Ok(false),
        other => Err(format!("`{other}`: expected on/off")),
    }
}

fn parse_duration(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let (num, unit) = match s.find(|c: char| c.is_ascii_alphabetic()) {
        Some(i) => s.split_at(i),
        None => (s, "ms"),
    };
    let v: f64 = num.trim().parse().map_err(|_| format!("`{s}`: expected a duration"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("`{s}`: negative or non-finite duration"));
    }
    let secs = match unit.trim() {
        "ns" => v * 1e-9,
        "us" | "µs" => v * 1e-6,
        "ms" => v * 1e-3,
        "s" => v,
        "m" | "min" => v * 60.0,
        other => return Err(format!("`{other}`: unknown duration unit (ns/us/ms/s/m)")),
    };
    Duration::try_from_secs_f64(secs).map_err(|_| format!("`{s}`: duration out of range"))
}

/// Counts of injected faults and recovery actions during a run.
/// Deterministic for a fixed `(config, workload)` pair regardless of host
/// thread count, since every count derives from seeded rolls on stable
/// indices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Injected DMA transfers that returned an error status.
    pub dma_errors: u64,
    /// Injected DMA transfers that timed out.
    pub dma_timeouts: u64,
    /// Injected transient per-job device faults.
    pub device_faults: u64,
    /// Device-memory reads that suffered an injected latency spike.
    pub mem_spikes: u64,
    /// Batch retry attempts performed.
    pub retries: u64,
    /// Total modeled backoff before retries, in nanoseconds: device time,
    /// never slept on the host.
    pub backoff_ns: u64,
    /// Batches re-executed on the software oracle after exhausting the
    /// retry budget.
    pub fallback_batches: u64,
    /// Partition jobs inside those fallback batches.
    pub fallback_jobs: u64,
}

impl FaultReport {
    /// Folds another report into this one.
    pub fn absorb(&mut self, other: FaultReport) {
        self.dma_errors += other.dma_errors;
        self.dma_timeouts += other.dma_timeouts;
        self.device_faults += other.device_faults;
        self.mem_spikes += other.mem_spikes;
        self.retries += other.retries;
        self.backoff_ns += other.backoff_ns;
        self.fallback_batches += other.fallback_batches;
        self.fallback_jobs += other.fallback_jobs;
    }

    /// True when nothing was injected and no recovery action ran.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == FaultReport::default()
    }

    /// Total injected fault events (excluding recovery actions).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.dma_errors + self.dma_timeouts + self.device_faults + self.mem_spikes
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dma {}+{}to, device {}, mem-spikes {}, retries {}, fallback {}b/{}j",
            self.dma_errors,
            self.dma_timeouts,
            self.device_faults,
            self.mem_spikes,
            self.retries,
            self.fallback_batches,
            self.fallback_jobs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert() {
        let cfg = FaultConfig::default();
        assert!(!cfg.is_active());
        assert!(!cfg.injects());
        assert_eq!(cfg.dma_fault(3, 0), None);
        assert!(!cfg.device_fault(3, 0));
        assert_eq!(cfg.mem_faults(0, 0), None);
        assert_eq!(cfg.backoff(1), Duration::ZERO);
    }

    #[test]
    fn spec_parses_full_form() {
        let cfg = FaultConfig::from_spec(
            "dma=0.1, device=0.05, mem=0.01:250, seed=7, retries=5, backoff=1ms:50ms, fallback=on",
        )
        .unwrap();
        assert_eq!(cfg.dma_fail_ppm, 100_000);
        assert_eq!(cfg.device_fail_ppm, 50_000);
        assert_eq!(cfg.mem_spike_ppm, 10_000);
        assert_eq!(cfg.mem_spike_cycles, 250);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.max_retries, 5);
        assert_eq!(cfg.backoff_base, Duration::from_millis(1));
        assert_eq!(cfg.backoff_cap, Duration::from_millis(50));
        assert!(cfg.fallback);
        assert!(cfg.is_active() && cfg.injects());
    }

    #[test]
    fn spec_off_and_errors() {
        assert_eq!(FaultConfig::from_spec("off").unwrap(), FaultConfig::default());
        assert_eq!(FaultConfig::from_spec("").unwrap(), FaultConfig::default());
        assert!(FaultConfig::from_spec("dma=2.0").is_err());
        assert!(FaultConfig::from_spec("bogus=1").is_err());
        let err = FaultConfig::from_spec("dmaa=0.1").unwrap_err();
        assert!(err.contains("did you mean `dma`"), "got: {err}");
        assert!(FaultConfig::from_spec("dma").is_err());
        assert!(FaultConfig::from_spec("backoff=1parsec").is_err());
        assert!(FaultConfig::from_spec("mem=0.5:18446744073709551615").is_err());
        // Rates-only spec inherits the recovery defaults.
        let cfg = FaultConfig::from_spec("dma=0.5").unwrap();
        assert_eq!(cfg.max_retries, 3);
        assert!(cfg.fallback);
    }

    #[test]
    fn rolls_are_deterministic_and_rate_shaped() {
        let cfg = FaultConfig { dma_fail_ppm: 300_000, seed: 11, ..FaultConfig::default() };
        let hits: Vec<_> = (0..1000).map(|b| cfg.dma_fault(b, 0)).collect();
        assert_eq!(hits, (0..1000).map(|b| cfg.dma_fault(b, 0)).collect::<Vec<_>>());
        let n = hits.iter().filter(|h| h.is_some()).count();
        assert!((200..400).contains(&n), "~30% expected, got {n}");
        // Both flavors occur.
        assert!(hits.contains(&Some(DmaFault::Error)));
        assert!(hits.contains(&Some(DmaFault::Timeout)));
        // Attempts re-roll.
        assert!((0..1000u64).any(|b| cfg.dma_fault(b, 0) != cfg.dma_fault(b, 1)));
        // Different seeds give different schedules.
        let other = FaultConfig { seed: 12, ..cfg.clone() };
        assert!((0..1000u64).any(|b| cfg.dma_fault(b, 0) != other.dma_fault(b, 0)));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let cfg = FaultConfig {
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(1),
            ..FaultConfig::default()
        };
        assert_eq!(cfg.backoff(1), Duration::from_micros(100));
        assert_eq!(cfg.backoff(2), Duration::from_micros(200));
        assert_eq!(cfg.backoff(3), Duration::from_micros(400));
        assert_eq!(cfg.backoff(5), Duration::from_millis(1));
        assert_eq!(cfg.backoff(60), Duration::from_millis(1));
    }

    #[test]
    fn report_absorbs_and_displays() {
        let mut a = FaultReport { dma_errors: 1, retries: 2, ..FaultReport::default() };
        let b = FaultReport { dma_errors: 3, fallback_jobs: 4, ..FaultReport::default() };
        a.absorb(b);
        assert_eq!(a.dma_errors, 4);
        assert_eq!(a.fallback_jobs, 4);
        assert!(!a.is_empty());
        assert_eq!(a.injected(), 4);
        assert!(FaultReport::default().is_empty());
        assert!(format!("{a}").contains("retries 2"));
    }

    #[test]
    fn mem_overlay_rerolls_per_attempt() {
        let cfg = FaultConfig {
            mem_spike_ppm: 1000,
            mem_spike_cycles: 300,
            ..FaultConfig::default()
        };
        let a = cfg.mem_faults(0, 0).unwrap();
        let b = cfg.mem_faults(0, 1).unwrap();
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.spike_ppm, 1000);
        assert_eq!(a.extra_cycles, 300);
    }
}
