//! Channelized device-memory model with the arbiter tree of Figure 8.
//!
//! Memory readers/writers access device memory at a 64 B line granularity.
//! Requests pass a *local arbiter* (one per pipeline) and a *global
//! arbiter* per memory channel (paper Figure 8); each enforces a per-cycle
//! request limit, so over-replicated pipeline configurations saturate —
//! the effect behind the paper's "performance limit where an accelerator
//! can no longer get more speedup from parallelism" (§V-A).

use std::collections::VecDeque;

/// Memory line size in bytes (the paper's access granularity example).
pub const LINE_BYTES: usize = 64;

/// A 64-byte memory line.
pub type Line = [u8; LINE_BYTES];

/// SplitMix64 finalizer: a stateless 64-bit mixer. Fault decisions hash
/// deterministic indices (request ordinal, batch index, attempt) through
/// this, so injected faults replay exactly under a fixed seed regardless
/// of host thread scheduling.
#[must_use]
pub fn mix64(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic read-latency fault injection: a seeded fraction of
/// accepted line reads takes `extra_cycles` longer than the configured
/// latency, modeling refresh collisions or row-buffer thrash. The decision
/// for the *n*-th accepted read is a pure function of `(seed, n)`, so the
/// same schedule replays under both simulation engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyFaults {
    /// Probability, in parts per million, that an accepted read spikes.
    pub spike_ppm: u32,
    /// Extra cycles a spiked read takes on top of `latency_cycles`.
    pub extra_cycles: u64,
    /// Seed of the per-request fault stream.
    pub seed: u64,
}

impl LatencyFaults {
    fn spikes(&self, ordinal: u64) -> bool {
        mix64(self.seed ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1_000_000
            < u64::from(self.spike_ppm)
    }
}

/// Configuration of the device memory system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Number of memory channels (AWS F1: 4 DDR4 channels).
    pub num_channels: usize,
    /// Read/write latency in cycles.
    pub latency_cycles: u64,
    /// Line requests each channel can accept per cycle.
    pub channel_requests_per_cycle: u32,
    /// Line requests each local (per-pipeline) arbiter forwards per cycle.
    pub local_requests_per_cycle: u32,
    /// Maximum outstanding requests per port (the reader prefetch depth).
    pub max_inflight_per_port: usize,
    /// Optional injected latency-spike model (`None` = no faults).
    pub faults: Option<LatencyFaults>,
}

impl Default for MemoryConfig {
    /// AWS F1-like defaults: 4 channels, 100-cycle latency, one line per
    /// channel per cycle (≈64 GB/s aggregate at 250 MHz), 2 requests per
    /// local arbiter per cycle, 8 outstanding lines per port.
    fn default() -> MemoryConfig {
        MemoryConfig {
            num_channels: 4,
            latency_cycles: 100,
            channel_requests_per_cycle: 1,
            local_requests_per_cycle: 2,
            max_inflight_per_port: 8,
            faults: None,
        }
    }
}

impl MemoryConfig {
    /// The worst-case latency a single read can observe under the active
    /// fault model. Deadlock detection windows scale with this rather than
    /// the nominal latency, so injected spikes are not misread as hangs.
    #[must_use]
    pub fn worst_case_latency_cycles(&self) -> u64 {
        self.latency_cycles
            + self.faults.filter(|f| f.spike_ppm > 0).map_or(0, |f| f.extra_cycles)
    }
}

/// Identifier of a memory port (one per memory reader/writer module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(u32);

/// Aggregate memory traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Lines read by the device.
    pub read_lines: u64,
    /// Lines written by the device.
    pub write_lines: u64,
    /// Requests refused by channel arbitration.
    pub channel_stalls: u64,
    /// Requests refused by local arbitration.
    pub local_stalls: u64,
    /// Reads that suffered an injected latency spike.
    pub latency_spikes: u64,
}

impl MemStats {
    /// Bytes read by the device.
    #[must_use]
    pub fn read_bytes(&self) -> u64 {
        self.read_lines * LINE_BYTES as u64
    }

    /// Bytes written by the device.
    #[must_use]
    pub fn write_bytes(&self) -> u64 {
        self.write_lines * LINE_BYTES as u64
    }
}

#[derive(Debug)]
struct Port {
    group: u32,
    inflight: usize,
    responses: VecDeque<(u64, u64)>, // (ready_cycle, line_addr)
}

/// The device memory: backing store, channels, arbiters, and statistics.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemoryConfig,
    data: Vec<u8>,
    cycle: u64,
    ports: Vec<Port>,
    channel_used: Vec<u32>,
    group_used: Vec<u32>,
    stats: MemStats,
    /// Ordinal of the next accepted read, the index into the deterministic
    /// fault stream. Reads are accepted in the same order under both
    /// engines, so spike placement is engine-independent.
    issued_reads: u64,
}

impl MemorySystem {
    /// Creates a memory system.
    #[must_use]
    pub fn new(cfg: MemoryConfig) -> MemorySystem {
        let channels = cfg.num_channels;
        MemorySystem {
            cfg,
            data: Vec::new(),
            cycle: 0,
            ports: Vec::new(),
            channel_used: vec![0; channels],
            group_used: Vec::new(),
            stats: MemStats::default(),
            issued_reads: 0,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.cfg
    }

    /// Reserves backing store for `bytes` more bytes of allocations, so a
    /// host that knows a batch's footprint pays for one growth instead of
    /// one per [`MemorySystem::alloc`]. Purely a host-side capacity hint:
    /// addresses, contents and timing are unaffected.
    pub fn reserve(&mut self, bytes: usize) {
        self.data.reserve(bytes);
    }

    /// Allocates `len` bytes of zeroed device memory, 64 B aligned.
    /// Returns the base address.
    pub fn alloc(&mut self, len: usize) -> u64 {
        let addr = self.data.len() as u64;
        let padded = len.div_ceil(LINE_BYTES) * LINE_BYTES;
        self.data.resize(self.data.len() + padded, 0);
        addr
    }

    /// Host-side fill (models the DMA copy in `configure_mem`; traffic is
    /// accounted by the host DMA model, not here).
    ///
    /// # Panics
    ///
    /// Panics when the range is unallocated.
    pub fn host_write(&mut self, addr: u64, bytes: &[u8]) {
        let start = addr as usize;
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
    }

    /// Host-side readback (models `genesis_flush`).
    ///
    /// # Panics
    ///
    /// Panics when the range is unallocated.
    #[must_use]
    pub fn host_read(&self, addr: u64, len: usize) -> Vec<u8> {
        let start = addr as usize;
        self.data[start..start + len].to_vec()
    }

    /// Registers a port belonging to local-arbiter group `group`
    /// (one group per pipeline in Figure 8).
    pub fn register_port(&mut self, group: u32) -> PortId {
        if group as usize >= self.group_used.len() {
            self.group_used.resize(group as usize + 1, 0);
        }
        self.ports.push(Port { group, inflight: 0, responses: VecDeque::new() });
        PortId(self.ports.len() as u32 - 1)
    }

    /// Starts a new cycle: resets per-cycle arbitration counters.
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.channel_used.fill(0);
        self.group_used.fill(0);
    }

    fn channel_of(&self, line_addr: u64) -> usize {
        ((line_addr / LINE_BYTES as u64) % self.cfg.num_channels as u64) as usize
    }

    fn arbitrate(&mut self, port: PortId) -> bool {
        let group = self.ports[port.0 as usize].group as usize;
        if self.group_used[group] >= self.cfg.local_requests_per_cycle {
            self.stats.local_stalls += 1;
            return false;
        }
        true
    }

    /// Attempts to issue a line read. Returns `false` (and counts a stall)
    /// when arbitration or the port's in-flight limit refuses the request.
    pub fn try_read(&mut self, port: PortId, line_addr: u64) -> bool {
        debug_assert_eq!(line_addr % LINE_BYTES as u64, 0, "unaligned line read");
        if self.ports[port.0 as usize].inflight >= self.cfg.max_inflight_per_port {
            return false;
        }
        if !self.arbitrate(port) {
            return false;
        }
        let chan = self.channel_of(line_addr);
        if self.channel_used[chan] >= self.cfg.channel_requests_per_cycle {
            self.stats.channel_stalls += 1;
            return false;
        }
        let group = self.ports[port.0 as usize].group as usize;
        self.group_used[group] += 1;
        self.channel_used[chan] += 1;
        self.stats.read_lines += 1;
        let mut latency = self.cfg.latency_cycles;
        if let Some(faults) = self.cfg.faults {
            if faults.spike_ppm > 0 && faults.spikes(self.issued_reads) {
                latency += faults.extra_cycles;
                self.stats.latency_spikes += 1;
            }
        }
        self.issued_reads += 1;
        let ready = self.cycle + latency;
        let p = &mut self.ports[port.0 as usize];
        p.inflight += 1;
        p.responses.push_back((ready, line_addr));
        true
    }

    /// True when `port` is at its outstanding-request limit, so the next
    /// [`MemorySystem::try_read`] would be refused *without* counting an
    /// arbitration stall. The fast engine uses this to tell silent
    /// refusals apart from stall-counting ones.
    #[must_use]
    pub fn inflight_full(&self, port: PortId) -> bool {
        self.ports[port.0 as usize].inflight >= self.cfg.max_inflight_per_port
    }

    /// Cycle at which the oldest outstanding response for `port` becomes
    /// deliverable, when one exists (the fast engine's timed
    /// wake-up for a reader blocked on memory latency).
    #[must_use]
    pub fn next_response_ready(&self, port: PortId) -> Option<u64> {
        self.ports[port.0 as usize].responses.front().map(|&(ready, _)| ready)
    }

    /// Delivers the oldest completed read response for `port`, copying the
    /// line out of the backing store.
    pub fn poll_response(&mut self, port: PortId) -> Option<(u64, Line)> {
        let p = &mut self.ports[port.0 as usize];
        match p.responses.front() {
            Some(&(ready, addr)) if ready <= self.cycle => {
                p.responses.pop_front();
                p.inflight -= 1;
                let start = addr as usize;
                let mut line = [0u8; LINE_BYTES];
                line.copy_from_slice(&self.data[start..start + LINE_BYTES]);
                Some((addr, line))
            }
            _ => None,
        }
    }

    /// Attempts to write `bytes` at `addr` (must fit within one line).
    /// Data is applied immediately; bandwidth and arbitration are modeled
    /// like reads.
    ///
    /// # Panics
    ///
    /// Panics when the write crosses a line boundary or is unallocated.
    pub fn try_write(&mut self, port: PortId, addr: u64, bytes: &[u8]) -> bool {
        assert!(
            (addr % LINE_BYTES as u64) as usize + bytes.len() <= LINE_BYTES,
            "write crosses line boundary"
        );
        if !self.arbitrate(port) {
            return false;
        }
        let chan = self.channel_of(addr - addr % LINE_BYTES as u64);
        if self.channel_used[chan] >= self.cfg.channel_requests_per_cycle {
            self.stats.channel_stalls += 1;
            return false;
        }
        let group = self.ports[port.0 as usize].group as usize;
        self.group_used[group] += 1;
        self.channel_used[chan] += 1;
        self.stats.write_lines += 1;
        let start = addr as usize;
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
        true
    }

    /// Traffic statistics so far.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemorySystem {
        MemorySystem::new(MemoryConfig { latency_cycles: 3, ..MemoryConfig::default() })
    }

    #[test]
    fn alloc_is_line_aligned() {
        let mut m = mem();
        let a = m.alloc(10);
        let b = m.alloc(100);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert_eq!(b, 64);
    }

    #[test]
    fn reserve_changes_no_address() {
        let mut m = mem();
        m.reserve(4096);
        assert_eq!(m.alloc(10), 0);
        assert_eq!(m.alloc(100), 64);
        assert_eq!(m.host_read(0, 10), vec![0; 10]);
    }

    #[test]
    fn read_after_latency() {
        let mut m = mem();
        let a = m.alloc(64);
        m.host_write(a, &[7u8; 64]);
        let p = m.register_port(0);
        m.begin_cycle(0);
        assert!(m.try_read(p, a));
        assert!(m.poll_response(p).is_none());
        m.begin_cycle(3);
        let (addr, line) = m.poll_response(p).unwrap();
        assert_eq!(addr, a);
        assert_eq!(line[0], 7);
    }

    #[test]
    fn channel_arbitration_limits_per_cycle() {
        let mut m = mem();
        let a = m.alloc(64 * 16);
        let p0 = m.register_port(0);
        let p1 = m.register_port(1);
        m.begin_cycle(0);
        // Same channel (addresses 0 and 4*64 both map to channel 0).
        assert!(m.try_read(p0, a));
        assert!(!m.try_read(p1, a + 4 * 64));
        // Different channel is still free.
        assert!(m.try_read(p1, a + 64));
        assert!(m.stats().channel_stalls >= 1);
    }

    #[test]
    fn local_arbitration_limits_group() {
        let mut m = mem();
        let a = m.alloc(64 * 16);
        let p0 = m.register_port(0);
        let p1 = m.register_port(0);
        let p2 = m.register_port(0);
        m.begin_cycle(0);
        assert!(m.try_read(p0, a));
        assert!(m.try_read(p1, a + 64));
        // Third request from the same local arbiter group this cycle.
        assert!(!m.try_read(p2, a + 2 * 64));
        assert_eq!(m.stats().local_stalls, 1);
    }

    #[test]
    fn inflight_limit() {
        let mut m = MemorySystem::new(MemoryConfig {
            max_inflight_per_port: 2,
            latency_cycles: 100,
            local_requests_per_cycle: 8,
            ..MemoryConfig::default()
        });
        let a = m.alloc(64 * 8);
        let p = m.register_port(0);
        m.begin_cycle(0);
        assert!(m.try_read(p, a));
        m.begin_cycle(1);
        assert!(m.try_read(p, a + 64));
        m.begin_cycle(2);
        assert!(!m.try_read(p, a + 128));
    }

    #[test]
    fn write_applies_and_counts() {
        let mut m = mem();
        let a = m.alloc(64);
        let p = m.register_port(0);
        m.begin_cycle(0);
        assert!(m.try_write(p, a + 8, &[1, 2, 3]));
        assert_eq!(m.host_read(a + 8, 3), vec![1, 2, 3]);
        assert_eq!(m.stats().write_lines, 1);
        assert_eq!(m.stats().write_bytes(), 64);
    }

    #[test]
    fn latency_spikes_are_deterministic_and_counted() {
        let cfg = MemoryConfig {
            latency_cycles: 3,
            max_inflight_per_port: 64,
            local_requests_per_cycle: 8,
            faults: Some(LatencyFaults { spike_ppm: 500_000, extra_cycles: 40, seed: 9 }),
            ..MemoryConfig::default()
        };
        assert_eq!(cfg.worst_case_latency_cycles(), 43);
        let run = |cfg: &MemoryConfig| {
            let mut m = MemorySystem::new(cfg.clone());
            let a = m.alloc(64 * 64);
            let p = m.register_port(0);
            for i in 0..32u64 {
                m.begin_cycle(i);
                assert!(m.try_read(p, a + i * 64));
            }
            m.stats().latency_spikes
        };
        let spikes = run(&cfg);
        assert!(spikes > 0 && spikes < 32, "~half should spike, got {spikes}");
        assert_eq!(spikes, run(&cfg), "same seed must replay the same schedule");
        let quiet = MemoryConfig { faults: None, ..cfg };
        assert_eq!(run(&quiet), 0);
        assert_eq!(quiet.worst_case_latency_cycles(), 3);
    }

    #[test]
    fn responses_are_fifo_per_port() {
        let mut m = mem();
        let a = m.alloc(64 * 4);
        m.host_write(a, &[1u8; 64]);
        m.host_write(a + 64, &[2u8; 64]);
        let p = m.register_port(0);
        m.begin_cycle(0);
        assert!(m.try_read(p, a));
        m.begin_cycle(1);
        assert!(m.try_read(p, a + 64));
        m.begin_cycle(10);
        assert_eq!(m.poll_response(p).unwrap().0, a);
        assert_eq!(m.poll_response(p).unwrap().0, a + 64);
        assert!(m.poll_response(p).is_none());
    }
}
