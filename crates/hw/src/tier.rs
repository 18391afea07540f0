//! Tiered memory: SPM ↔ device DRAM ↔ host DRAM paging for scratchpads.
//!
//! Genesis pipelines historically required every scratchpad to fit the
//! modeled on-chip SPM budget, capping partition sizes. This module lifts
//! that limit the way Bancroft-style accelerators do: scratchpads that
//! exceed the on-chip quota are *paged*, with page-granular spill/fill
//! between three tiers — resident SPM, device DRAM, and host DRAM behind a
//! PCIe link model with its own latency, bandwidth, and inflight cap.
//!
//! The model is **timing-only**: [`crate::Spm`] always holds the full
//! contents, so results are bit-identical with tiering on or off. What the
//! tier layer adds is *when* an access may proceed. A module touching a
//! non-resident page parks on a timed wake
//! ([`crate::modules::Watch::Spill`]) until the fill completes, and those
//! cycles land in the `stall:spill` bucket.
//!
//! # Determinism across engines
//!
//! The reference engine ignores parks and re-ticks waiting modules every
//! cycle, so every state transition here must be driven only by the
//! *initiating* tick, never by re-ticks:
//!
//! - While any page a module needs is in flight, [`TierState::access`]
//!   takes a pure pre-scan path that returns the pending ready time
//!   without mutating anything.
//! - Pages a waiting module needs are pinned (`pin_until`) for the whole
//!   wait so a concurrent module cannot evict them mid-wait, which would
//!   otherwise make re-ticks re-initiate fills.
//! - Residency ("settled") is judged by `ready_at <= cycle`, not by when
//!   bookkeeping happened, so lazily normalizing `Inflight → Resident`
//!   entries is semantically invisible.

use std::collections::VecDeque;

use crate::spm::{SpmId, SpmPool};

/// Cycle-level tier parameters (the core crate converts physical units —
/// GiB/s, ns — into these using the device clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierParams {
    /// Spill/fill granularity in bytes.
    pub page_bytes: u64,
    /// On-chip SPM budget in bytes. Scratchpads that fit (greedily, in
    /// creation order) are pinned and never pay tier costs; the rest are
    /// paged with at least one resident page each.
    pub spm_bytes: u64,
    /// Device-DRAM spill capacity in bytes (evicted pages land here first;
    /// overflow demotes the oldest DRAM page to host over PCIe).
    pub dram_bytes: u64,
    /// Host-DRAM capacity in bytes; `0` means unbounded (no total-capacity
    /// error possible).
    pub host_bytes: u64,
    /// PCIe transfer latency in cycles (host ↔ device DRAM).
    pub pcie_lat_cycles: u64,
    /// PCIe bandwidth in bytes per cycle (min 1).
    pub pcie_bytes_per_cycle: u64,
    /// Device-DRAM access latency in cycles (DRAM ↔ SPM).
    pub dram_lat_cycles: u64,
    /// Device-DRAM bandwidth in bytes per cycle (min 1).
    pub dram_bytes_per_cycle: u64,
    /// Maximum outstanding page transfers (prefetches are dropped at the
    /// cap; demand fills instead wait for a slot).
    pub max_inflight: usize,
}

impl Default for TierParams {
    /// PCIe-3-ish defaults at the paper's 250 MHz fabric clock: 4 KiB
    /// pages, 4 MiB SPM, 1 GiB device DRAM, unbounded host, 8 GiB/s PCIe
    /// at 800 ns, DRAM at 100 cycles.
    fn default() -> TierParams {
        TierParams {
            page_bytes: 4096,
            spm_bytes: 4 << 20,
            dram_bytes: 1 << 30,
            host_bytes: 0,
            pcie_lat_cycles: 200,
            pcie_bytes_per_cycle: 32,
            dram_lat_cycles: 100,
            dram_bytes_per_cycle: 64,
            max_inflight: 8,
        }
    }
}

impl TierParams {
    /// Upper bound on how long one module can wait on the tier layer
    /// without the simulation making signature progress (used to extend
    /// the engines' deadlock window). Saturates: every field is reachable
    /// from a `GENESIS_TIERS` spec, and a bound of `u64::MAX` only means
    /// the window never closes before the cycle budget does.
    #[must_use]
    pub fn worst_case_wait_cycles(&self) -> u64 {
        let page = self.page_bytes.max(1);
        let transfer = |bytes_per_cycle: u64| page.div_ceil(bytes_per_cycle.max(1)).saturating_mul(2);
        let per_op = self
            .pcie_lat_cycles
            .saturating_add(self.dram_lat_cycles)
            .saturating_add(transfer(self.pcie_bytes_per_cycle))
            .saturating_add(transfer(self.dram_bytes_per_cycle));
        (self.max_inflight as u64).saturating_add(4).saturating_mul(per_op)
    }
}

/// Tier activity counters (monotonic over a run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Pages brought into SPM residency (demand fills + prefetches).
    pub pages_filled: u64,
    /// Pages evicted out of SPM residency.
    pub pages_spilled: u64,
    /// Prefetch fills issued by the stride detector.
    pub prefetch_issued: u64,
    /// Accesses that found their page resident (or already in flight)
    /// thanks to a prefetch.
    pub prefetch_hits: u64,
    /// Bytes moved over the PCIe link (host ↔ device DRAM, both ways).
    pub pcie_bytes: u64,
    /// Bytes moved over the device-DRAM port (DRAM ↔ SPM, both ways).
    pub dram_bytes: u64,
}

impl TierStats {
    /// Component-wise accumulation (batch roll-ups).
    pub fn absorb(&mut self, other: TierStats) {
        self.pages_filled += other.pages_filled;
        self.pages_spilled += other.pages_spilled;
        self.prefetch_issued += other.prefetch_issued;
        self.prefetch_hits += other.prefetch_hits;
        self.pcie_bytes += other.pcie_bytes;
        self.dram_bytes += other.dram_bytes;
    }
}

/// A job's scratchpad working set does not fit the combined capacity of
/// all three tiers (returned by [`SpmPool::set_tiers`]; only possible when
/// `host_bytes` is bounded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierOverflow {
    /// Name of the scratchpad that tipped the working set over capacity.
    pub spm: String,
    /// Bytes of that scratchpad.
    pub spm_bytes: u64,
    /// Total working-set bytes across all scratchpads.
    pub need_bytes: u64,
    /// Combined capacity of SPM + device DRAM + host DRAM.
    pub capacity_bytes: u64,
}

impl std::fmt::Display for TierOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "working set of {} B exceeds total tier capacity of {} B \
             (scratchpad `{}` adds {} B)",
            self.need_bytes, self.capacity_bytes, self.spm, self.spm_bytes
        )
    }
}

/// Where a page currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageLoc {
    /// Resident in SPM.
    Spm,
    /// In device DRAM.
    Dram,
    /// In host DRAM.
    Host,
    /// Transfer into SPM completes at the given cycle (the slot is already
    /// reserved against the residency budget).
    Inflight(u64),
}

#[derive(Debug, Clone, Copy)]
struct Page {
    loc: PageLoc,
    dirty: bool,
    referenced: bool,
    prefetched: bool,
    pin_until: u64,
}

impl Page {
    /// Resident for access purposes at `cycle` (time-based so that lazy
    /// bookkeeping cannot diverge between engines).
    fn settled(&self, cycle: u64) -> bool {
        match self.loc {
            PageLoc::Spm => true,
            PageLoc::Inflight(ready) => ready <= cycle,
            PageLoc::Dram | PageLoc::Host => false,
        }
    }
}

/// Paging state for one oversized scratchpad.
#[derive(Debug)]
struct PageTable {
    pages: Vec<Page>,
    /// Elements per page (from the scratchpad's packed element width).
    elems_per_page: u64,
    /// Max pages resident (including reserved in-flight slots).
    budget: usize,
    /// Pages currently resident or reserved.
    resident: usize,
    /// Clock hand for second-chance eviction.
    hand: usize,
    /// Last demand-miss page (stride detection).
    last_miss: Option<u64>,
    last_stride: i64,
}

/// Shared tier state for an [`SpmPool`] (page tables plus the two link
/// schedules). All paged scratchpads share the links.
#[derive(Debug)]
pub(crate) struct TierState {
    params: TierParams,
    /// Indexed by raw scratchpad index; `None` for pinned scratchpads.
    tables: Vec<Option<PageTable>>,
    /// Cycle at which the PCIe link is next free.
    pcie_free_at: u64,
    /// Cycle at which the device-DRAM port is next free.
    dram_free_at: u64,
    /// Bytes of spilled pages currently held in device DRAM.
    dram_used: u64,
    /// Pages in device DRAM, oldest first (FIFO demotion to host).
    dram_fifo: VecDeque<(u32, u64)>,
    /// Outstanding transfers `(spm, page, ready_at)`; pruned lazily on
    /// mutating ticks. Liveness is judged by `ready_at > cycle`.
    inflight: Vec<(u32, u64, u64)>,
    stats: TierStats,
    /// Monotonic count of page movements (progress-signature term).
    ops: u64,
}

impl TierState {
    fn page_of(&self, spm: usize, idx: u64) -> Option<u64> {
        let table = self.tables.get(spm)?.as_ref()?;
        let page = idx / table.elems_per_page;
        // Out-of-range accesses read 0 / drop writes upstream; no paging.
        (page < table.pages.len() as u64).then_some(page)
    }

    fn table(&mut self, spm: usize) -> &mut PageTable {
        self.tables[spm].as_mut().expect("paged scratchpad")
    }

    /// Count of transfers still in flight at `cycle` (time-based).
    fn live_inflight(&self, cycle: u64) -> usize {
        self.inflight.iter().filter(|&&(_, _, ready)| ready > cycle).count()
    }

    /// Earliest completion among transfers still in flight at `cycle`.
    fn earliest_inflight(&self, cycle: u64) -> Option<u64> {
        self.inflight
            .iter()
            .filter(|&&(_, _, ready)| ready > cycle)
            .map(|&(_, _, ready)| ready)
            .min()
    }

    /// Schedules a page transfer into SPM and returns its completion
    /// cycle. The residency slot must already be accounted by the caller.
    fn schedule_fill(&mut self, spm: usize, page: u64, cycle: u64, prefetched: bool) -> u64 {
        let bytes = self.params.page_bytes;
        let from_host = {
            let t = self.tables[spm].as_ref().expect("paged scratchpad");
            t.pages[page as usize].loc == PageLoc::Host
        };
        let (lat, bpc) = if from_host {
            (self.params.pcie_lat_cycles, self.params.pcie_bytes_per_cycle.max(1))
        } else {
            (self.params.dram_lat_cycles, self.params.dram_bytes_per_cycle.max(1))
        };
        let free_at = if from_host { &mut self.pcie_free_at } else { &mut self.dram_free_at };
        let start = cycle.max(*free_at);
        let transfer = bytes.div_ceil(bpc);
        *free_at = start + transfer;
        let ready = start.saturating_add(lat).saturating_add(transfer);
        if from_host {
            self.stats.pcie_bytes += bytes;
        } else {
            self.stats.dram_bytes += bytes;
            self.dram_used = self.dram_used.saturating_sub(bytes);
            if let Some(at) = self.dram_fifo.iter().position(|&e| e == (spm as u32, page)) {
                self.dram_fifo.remove(at);
            }
        }
        let p = &mut self.table(spm).pages[page as usize];
        p.loc = PageLoc::Inflight(ready);
        p.prefetched = prefetched;
        p.referenced = false;
        self.inflight.push((spm as u32, page, ready));
        self.stats.pages_filled += 1;
        if prefetched {
            self.stats.prefetch_issued += 1;
        }
        self.ops += 1;
        ready
    }

    /// Evicts `page` from SPM residency into device DRAM (demoting the
    /// oldest DRAM page to host when DRAM is full). Accounts write-back
    /// traffic for dirty pages.
    fn evict(&mut self, spm: usize, page: u64, cycle: u64) {
        let bytes = self.params.page_bytes;
        let dirty = {
            let p = &mut self.table(spm).pages[page as usize];
            let was = p.dirty;
            p.loc = PageLoc::Dram;
            p.dirty = false;
            p.referenced = false;
            p.prefetched = false;
            was
        };
        if dirty {
            // Dirty write-back occupies the DRAM port ahead of any fill.
            let start = cycle.max(self.dram_free_at);
            self.dram_free_at = start + bytes.div_ceil(self.params.dram_bytes_per_cycle.max(1));
            self.stats.dram_bytes += bytes;
        }
        self.table(spm).resident -= 1;
        self.dram_used += bytes;
        self.dram_fifo.push_back((spm as u32, page));
        self.stats.pages_spilled += 1;
        self.ops += 1;
        // Demote the oldest DRAM pages to host when over capacity.
        while self.dram_used > self.params.dram_bytes {
            let Some((s, p)) = self.dram_fifo.pop_front() else { break };
            let start = cycle.max(self.pcie_free_at);
            self.pcie_free_at = start + bytes.div_ceil(self.params.pcie_bytes_per_cycle.max(1));
            self.stats.pcie_bytes += bytes;
            self.dram_used -= bytes;
            self.table(s as usize).pages[p as usize].loc = PageLoc::Host;
            self.ops += 1;
        }
    }

    /// Second-chance (clock) victim selection among settled, unpinned
    /// pages of `spm`. Returns `None` when every candidate is pinned.
    fn pick_victim(&mut self, spm: usize, cycle: u64) -> Option<u64> {
        let t = self.tables[spm].as_mut().expect("paged scratchpad");
        let n = t.pages.len();
        for _ in 0..2 * n {
            let i = t.hand;
            t.hand = (t.hand + 1) % n;
            let p = &mut t.pages[i];
            if !p.settled(cycle) || p.pin_until > cycle {
                continue;
            }
            if p.referenced {
                p.referenced = false;
                continue;
            }
            return Some(i as u64);
        }
        None
    }

    /// Issues a stride prefetch for `spm` after a demand miss on `miss`,
    /// when a free residency slot and an inflight slot are available.
    fn maybe_prefetch(&mut self, spm: usize, miss: u64, cycle: u64) {
        let (stride, target) = {
            let t = self.table(spm);
            let stride = match t.last_miss {
                Some(prev) => miss as i64 - prev as i64,
                None => 0,
            };
            let established = stride != 0 && stride == t.last_stride;
            t.last_stride = stride;
            t.last_miss = Some(miss);
            if !established {
                return;
            }
            (stride, miss as i64 + stride)
        };
        let _ = stride;
        if target < 0 {
            return;
        }
        let target = target as u64;
        if self.live_inflight(cycle) >= self.params.max_inflight {
            return;
        }
        let t = self.table(spm);
        if target >= t.pages.len() as u64 || t.resident >= t.budget {
            return;
        }
        if !matches!(t.pages[target as usize].loc, PageLoc::Dram | PageLoc::Host) {
            return;
        }
        t.resident += 1;
        self.schedule_fill(spm, target, cycle, true);
    }

    /// The tier gate for one module access: all of `ids` at element `idx`.
    ///
    /// Returns `None` when every touched page is resident (marking
    /// reference/dirty bits and prefetch hits), or `Some(ready_at)` when
    /// the module must park until the given cycle. Re-invocations while a
    /// needed page is in flight are pure queries.
    fn access(&mut self, ids: &[SpmId], idx: u64, write: bool, cycle: u64) -> Option<u64> {
        // Needed (spm, page) pairs; smallvec-ish: accesses touch 1-3 SPMs.
        let mut needed: [(usize, u64); 4] = [(usize::MAX, 0); 4];
        let mut n = 0;
        for id in ids {
            let s = id.index();
            if let Some(p) = self.page_of(s, idx) {
                if n < needed.len() {
                    needed[n] = (s, p);
                    n += 1;
                }
            }
        }
        let needed = &needed[..n];
        if needed.is_empty() {
            return None;
        }

        // Pure pre-scan: while any needed page is still in flight, report
        // the latest completion without touching any state (re-ticks of a
        // parked module in the reference engine take this path).
        let mut pending = 0u64;
        for &(s, p) in needed {
            let page = self.tables[s].as_ref().expect("paged scratchpad").pages[p as usize];
            if let PageLoc::Inflight(ready) = page.loc {
                if ready > cycle {
                    pending = pending.max(ready);
                }
            }
        }
        if pending > cycle {
            return Some(pending);
        }

        let any_miss = needed.iter().any(|&(s, p)| {
            !self.tables[s].as_ref().expect("paged scratchpad").pages[p as usize].settled(cycle)
        });
        if !any_miss {
            // Success: mark bits and account prefetch hits (first touch).
            for &(s, p) in needed {
                let page = &mut self.table(s).pages[p as usize];
                if let PageLoc::Inflight(_) = page.loc {
                    page.loc = PageLoc::Spm;
                }
                page.referenced = true;
                if write {
                    page.dirty = true;
                }
                if page.prefetched {
                    page.prefetched = false;
                    self.stats.prefetch_hits += 1;
                }
            }
            self.inflight.retain(|&(_, _, ready)| ready > cycle);
            return None;
        }

        // Miss tick: provisionally pin everything this access needs so
        // victim selection (ours or a concurrent module's) cannot take it.
        for &(s, p) in needed {
            let page = &mut self.table(s).pages[p as usize];
            page.pin_until = page.pin_until.max(cycle + 1);
        }
        let mut ready_max = 0u64;
        for &(s, p) in needed {
            let settled =
                self.tables[s].as_ref().expect("paged scratchpad").pages[p as usize].settled(cycle);
            if settled {
                continue;
            }
            // Demand fills wait for an inflight slot rather than dropping.
            if self.live_inflight(cycle) >= self.params.max_inflight {
                let wait = self.earliest_inflight(cycle).unwrap_or(cycle + 1);
                ready_max = ready_max.max(wait);
                continue;
            }
            // Make room (the reserved slot counts against the budget).
            let (resident, budget) = {
                let t = self.table(s);
                (t.resident, t.budget)
            };
            if resident >= budget {
                match self.pick_victim(s, cycle) {
                    Some(victim) => self.evict(s, victim, cycle),
                    None => {
                        // Every settled page is pinned by waiting modules;
                        // retry when the earliest pin can expire.
                        let t = self.tables[s].as_ref().expect("paged scratchpad");
                        let wait = t
                            .pages
                            .iter()
                            .filter(|p| p.pin_until > cycle)
                            .map(|p| p.pin_until)
                            .min()
                            .unwrap_or(cycle + 1);
                        ready_max = ready_max.max(wait.max(cycle + 1));
                        continue;
                    }
                }
            }
            self.table(s).resident += 1;
            let ready = self.schedule_fill(s, p, cycle, false);
            ready_max = ready_max.max(ready);
            self.maybe_prefetch(s, p, cycle);
        }
        self.inflight.retain(|&(_, _, ready)| ready > cycle);
        // Extend pins to cover the whole wait.
        let until = ready_max.max(cycle + 1);
        for &(s, p) in needed {
            let page = &mut self.table(s).pages[p as usize];
            page.pin_until = page.pin_until.max(until);
        }
        Some(until)
    }
}

impl SpmPool {
    /// Enables tiered memory over this pool: scratchpads that fit the SPM
    /// quota (greedily, in creation order) stay pinned; the rest are paged
    /// with clock eviction, stride prefetch, and dirty write-back.
    ///
    /// Call after all scratchpads are added and before the run starts.
    /// Returns [`TierOverflow`] when the total working set exceeds the
    /// combined tier capacity (only when `host_bytes` is bounded).
    pub fn set_tiers(&mut self, params: TierParams) -> Result<(), TierOverflow> {
        // A page larger than a scratchpad is that scratchpad's one page
        // whatever its size; the cap keeps transfer times and byte counters
        // far from `u64` overflow for any `GENESIS_TIERS` `page=`.
        let page_bytes = params.page_bytes.clamp(64, 1 << 32);
        if params.host_bytes > 0 {
            let capacity =
                params.spm_bytes.saturating_add(params.dram_bytes).saturating_add(params.host_bytes);
            let mut need = 0u64;
            for spm in self.iter() {
                need += spm.byte_size() as u64;
                if need > capacity {
                    return Err(TierOverflow {
                        spm: spm.name().to_owned(),
                        spm_bytes: spm.byte_size() as u64,
                        need_bytes: self.total_bytes() as u64,
                        capacity_bytes: capacity,
                    });
                }
            }
        }
        // Greedy pinning pass, then split the leftover quota across the
        // paged scratchpads (at least one resident page each).
        let mut remaining = params.spm_bytes;
        let mut paged: Vec<usize> = Vec::new();
        for (i, spm) in self.iter().enumerate() {
            let bytes = spm.byte_size() as u64;
            if bytes <= remaining {
                remaining -= bytes;
            } else {
                paged.push(i);
            }
        }
        let mut tables: Vec<Option<PageTable>> = (0..self.len()).map(|_| None).collect();
        if !paged.is_empty() {
            let per_budget = ((remaining / page_bytes) as usize / paged.len()).max(1);
            for &i in &paged {
                let spm = self.iter().nth(i).expect("indexed scratchpad");
                let elems_per_page = ((page_bytes * 8) / spm.bits() as u64).max(1);
                let npages = (spm.len() as u64).div_ceil(elems_per_page).max(1) as usize;
                tables[i] = Some(PageTable {
                    pages: vec![
                        Page {
                            loc: PageLoc::Host,
                            dirty: false,
                            referenced: false,
                            prefetched: false,
                            pin_until: 0,
                        };
                        npages
                    ],
                    elems_per_page,
                    budget: per_budget.min(npages).max(1),
                    resident: 0,
                    hand: 0,
                    last_miss: None,
                    last_stride: 0,
                });
            }
        }
        self.tiers = Some(Box::new(TierState {
            params: TierParams { page_bytes, ..params },
            tables,
            pcie_free_at: 0,
            dram_free_at: 0,
            dram_used: 0,
            dram_fifo: VecDeque::new(),
            inflight: Vec::new(),
            stats: TierStats::default(),
            ops: 0,
        }));
        Ok(())
    }

    /// Tier gate for an access to element `idx` of each scratchpad in
    /// `ids`: `None` means proceed this cycle, `Some(ready_at)` means park
    /// on [`crate::modules::Watch::Spill`] until then. Free when tiering
    /// is disabled or every touched scratchpad is pinned.
    #[inline]
    pub fn tier_wait(&mut self, ids: &[SpmId], idx: u64, write: bool, cycle: u64) -> Option<u64> {
        let tiers = self.tiers.as_deref_mut()?;
        tiers.access(ids, idx, write, cycle)
    }

    /// Tier activity counters, when tiering is enabled.
    #[must_use]
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.tiers.as_deref().map(|t| t.stats)
    }

    /// Monotonic page-movement count (progress-signature term; 0 when
    /// tiering is disabled).
    #[must_use]
    pub(crate) fn tier_ops(&self) -> u64 {
        self.tiers.as_deref().map_or(0, |t| t.ops)
    }

    /// Worst-case single-module tier wait (deadlock-window term).
    #[must_use]
    pub(crate) fn tier_worst_wait(&self) -> u64 {
        self.tiers.as_deref().map_or(0, |t| t.params.worst_case_wait_cycles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paged_pool(len: usize, elem_bytes: usize, params: TierParams) -> (SpmPool, SpmId) {
        let mut pool = SpmPool::new();
        let id = pool.add("big", len, elem_bytes);
        pool.set_tiers(params).expect("fits");
        (pool, id)
    }

    fn tiny_params() -> TierParams {
        TierParams {
            page_bytes: 64,
            spm_bytes: 128, // two pages resident
            dram_bytes: 1 << 20,
            host_bytes: 0,
            pcie_lat_cycles: 10,
            pcie_bytes_per_cycle: 8,
            dram_lat_cycles: 4,
            dram_bytes_per_cycle: 16,
            max_inflight: 4,
        }
    }

    #[test]
    fn pinned_spm_never_waits() {
        let mut pool = SpmPool::new();
        let id = pool.add("small", 8, 8); // 64 B fits the quota
        pool.set_tiers(tiny_params()).unwrap();
        assert_eq!(pool.tier_wait(&[id], 0, false, 0), None);
        assert_eq!(pool.tier_stats().unwrap(), TierStats::default());
    }

    #[test]
    fn cold_page_waits_then_settles() {
        let (mut pool, id) = paged_pool(64, 8, tiny_params()); // 512 B, paged
        let wait = pool.tier_wait(&[id], 0, false, 0).expect("cold page must wait");
        // PCIe fill: latency 10 + 64/8 transfer = 18.
        assert_eq!(wait, 18);
        // Re-queries during the wait are pure and stable.
        let stats_before = pool.tier_stats().unwrap();
        assert_eq!(pool.tier_wait(&[id], 0, false, 5), Some(18));
        assert_eq!(pool.tier_stats().unwrap(), stats_before);
        // At the ready cycle the access proceeds.
        assert_eq!(pool.tier_wait(&[id], 0, false, 18), None);
        assert_eq!(pool.tier_stats().unwrap().pages_filled, 1);
        assert_eq!(pool.tier_stats().unwrap().pcie_bytes, 64);
    }

    #[test]
    fn eviction_spills_and_dram_refill_is_cheaper() {
        let params = tiny_params();
        let (mut pool, id) = paged_pool(64, 8, params); // 8 pages, budget 2
        let mut cycle = 0;
        // Touch pages 0,1,2 with strides that do not trigger prefetch.
        for page in [0u64, 1, 2] {
            let idx = page * 8;
            if let Some(at) = pool.tier_wait(&[id], idx, true, cycle) {
                cycle = at;
                assert_eq!(pool.tier_wait(&[id], idx, true, cycle), None);
            }
            cycle += 1;
        }
        let stats = pool.tier_stats().unwrap();
        assert_eq!(stats.pages_filled, 3);
        assert_eq!(stats.pages_spilled, 1, "third fill evicts one of two slots");
        // Dirty write-back went over the DRAM port.
        assert!(stats.dram_bytes >= 64);
        // Touch the evicted page again: it refills from DRAM (dirty
        // write-back 4 + latency 4 + 64/16 transfer = 12 cycles), not
        // from host over PCIe (latency 10 + 64/8 = 18).
        let pcie_before = pool.tier_stats().unwrap().pcie_bytes;
        let evicted_idx = 0u64; // page 0 was the clock's first victim
        let wait = pool.tier_wait(&[id], evicted_idx, false, cycle).expect("refill");
        assert!(wait - cycle <= 12, "DRAM refill should be cheap, got {}", wait - cycle);
        assert_eq!(pool.tier_stats().unwrap().pcie_bytes, pcie_before);
    }

    #[test]
    fn sequential_scan_prefetches() {
        let mut params = tiny_params();
        params.spm_bytes = 64 * 4; // four resident pages: room to prefetch
        let (mut pool, id) = paged_pool(128, 8, params); // 16 pages
        let mut cycle = 0;
        for idx in 0..128u64 {
            while let Some(at) = pool.tier_wait(&[id], idx, false, cycle) {
                cycle = at;
            }
            cycle += 1;
        }
        let stats = pool.tier_stats().unwrap();
        assert!(stats.prefetch_issued > 0, "sequential scan must prefetch: {stats:?}");
        assert!(stats.prefetch_hits > 0, "prefetched pages must be hit: {stats:?}");
    }

    #[test]
    fn multi_spm_access_waits_for_all() {
        let params = tiny_params();
        let mut pool = SpmPool::new();
        let a = pool.add("a", 64, 8);
        let b = pool.add("b", 64, 8);
        pool.set_tiers(params).unwrap();
        let wait = pool.tier_wait(&[a, b], 0, false, 0).expect("both cold");
        // Two serialized PCIe fills: second starts when the link frees.
        assert!(wait > 18, "serialized link: {wait}");
        assert_eq!(pool.tier_wait(&[a, b], 0, false, wait), None);
        assert_eq!(pool.tier_stats().unwrap().pages_filled, 2);
    }

    #[test]
    fn overflow_names_the_spm() {
        let mut params = tiny_params();
        params.dram_bytes = 64;
        params.host_bytes = 64;
        let mut pool = SpmPool::new();
        pool.add("fits", 8, 8);
        pool.add("huge", 1024, 8);
        let err = pool.set_tiers(params).unwrap_err();
        assert_eq!(err.spm, "huge");
        assert_eq!(err.spm_bytes, 8192);
        assert_eq!(err.capacity_bytes, 128 + 64 + 64);
        assert!(err.to_string().contains("huge"));
    }

    #[test]
    fn worst_case_wait_is_finite_and_generous() {
        let p = TierParams::default();
        assert!(p.worst_case_wait_cycles() > p.pcie_lat_cycles);
    }

    /// Every field is reachable from `GENESIS_TIERS`
    /// (`inflight=18446744073709551615`, an absurd `page=` or link
    /// latency): the bound saturates instead of overflowing.
    #[test]
    fn worst_case_wait_saturates_on_absurd_params() {
        let sane = TierParams::default();
        for absurd in [
            TierParams { max_inflight: usize::MAX, ..sane },
            TierParams { page_bytes: u64::MAX, pcie_bytes_per_cycle: 1, ..sane },
            TierParams { pcie_lat_cycles: u64::MAX / 3, dram_lat_cycles: u64::MAX / 3, ..sane },
            TierParams { pcie_lat_cycles: u64::MAX, ..sane },
        ] {
            assert!(absurd.worst_case_wait_cycles() > sane.worst_case_wait_cycles(), "{absurd:?}");
        }
        assert_eq!(TierParams { max_inflight: usize::MAX, ..sane }.worst_case_wait_cycles(), u64::MAX);
    }

    /// The largest accepted page, two paged scratchpads, every page moved:
    /// admission, the deadlock window and the transfer arithmetic all stay
    /// in range.
    #[test]
    fn absurd_page_size_still_pages() {
        let mut pool = SpmPool::new();
        let a = pool.add("a", 64, 8);
        let b = pool.add("b", 64, 8);
        let params = TierParams {
            page_bytes: u64::MAX,
            spm_bytes: 0,
            host_bytes: u64::MAX,
            max_inflight: usize::MAX,
            ..tiny_params()
        };
        pool.set_tiers(params).expect("an unbounded host fits anything");
        let ready = pool.tier_wait(&[a, b], 0, true, 0).expect("cold pages");
        assert_eq!(pool.tier_wait(&[a, b], 0, true, ready), None);
        assert_eq!(pool.tier_stats().unwrap().pages_filled, 2);
        assert_eq!(pool.tier_worst_wait(), u64::MAX);
    }
}
