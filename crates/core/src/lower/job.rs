//! Running a bound lowering: what each replica streams of each leaf
//! ([`Cut`], [`Reach`]), one shard's batches on the device, and
//! gathering, merging and finishing the shards' outputs on the host.

use super::bind::{PreparedCol, PreparedScan, WINDOW_BOUNDS};
use super::bounds::{range_stats, SubBounds};
use super::build::{build_core, BuildCtx, Built};
use super::{
    group_domain_cap, ColInfo, Decode, Epilogue, GroupRole, Lowering, ScalarKind, SinkKind,
    CHR_COL, POS_COLS,
};
use crate::builder::PipelineBuilder;
use crate::device::{run_batches, split_ranges, DeviceConfig};
use crate::error::CoreError;
use crate::perf::AccelStats;
use genesis_hw::memory::LINE_BYTES;
use genesis_hw::modules::mem_writer::MemWriter;
use genesis_hw::system::ModuleId;
use genesis_hw::System;
use genesis_sql::exec::{execute_plan, Env};
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::{Column, DataType, Field, Schema, Table, Value};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// 8-byte Memory Writer encoding of [`Value::Ins`] (all mask bits set).
const MARKER_INS: u64 = u64::MAX;
/// 8-byte Memory Writer encoding of [`Value::Del`] (mask minus one).
const MARKER_DEL: u64 = u64::MAX - 1;

/// Table name the merged hardware output is registered under when the
/// host-side epilogue (`ORDER BY`/`LIMIT`) re-enters the software engine.
const HW_OUT: &str = "__genesis_hw_out";

/// What one replica streams of one prepared leaf ([`PreparedJob::cuts`]):
/// a range of its rows and, for a cut `PosExplode` or reference window,
/// the range of items those rows keep — exploded positions, indexed like
/// [`ExplodeSpec::out_offsets`], or window values. The analysis build, and
/// every leaf nothing cuts, stream their rows whole.
///
/// [`ExplodeSpec::out_offsets`]: super::bind::ExplodeSpec::out_offsets
#[derive(Debug, Clone)]
pub(super) struct Cut {
    pub(super) rows: Range<usize>,
    /// `None`: every item of `rows`.
    pub(super) items: Option<Range<usize>>,
}

impl Cut {
    pub(super) fn rows(rows: Range<usize>) -> Cut {
        Cut { rows, items: None }
    }
}

/// A merge join whose right input is a plain scan or `PosExplode` leaf,
/// under `Filter`s at most, keyed on the leaf's own column, and whose left
/// key streams unchanged from a spine column. A replica's left keys all
/// lie within its spine slice's `[min, max]` of that column, and an inner
/// or left merge join emits no right row that matches no left row, so the
/// replica streams only the leaf rows keyed within that range.
#[derive(Debug, Clone, Copy)]
pub(super) struct Reach {
    /// The right leaf (prepared-scan index).
    pub(super) leaf: usize,
    /// Its key: a streamed column of a plain scan (a `PosExplode`'s key
    /// is its positions).
    pub(super) key: usize,
    /// The spine column the left key streams from.
    pub(super) spine: usize,
}

/// The first index in `0..n` where `pred` fails, for a `pred` that holds
/// on a prefix of `0..n` (a binary search).
fn partition_point(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The sorted union of `ranges`: overlapping or touching ranges merge and
/// empty ones drop.
fn union(mut ranges: Vec<Range<usize>>) -> Vec<Range<usize>> {
    ranges.retain(|r| !r.is_empty());
    ranges.sort_unstable_by_key(|r| r.start);
    ranges.dedup_by(|r, last| {
        let touches = r.start <= last.end;
        if touches {
            last.end = last.end.max(r.end);
        }
        touches
    });
    ranges
}

/// Raw per-job output, merged on the host after simulation.
#[derive(Debug)]
enum JobOut {
    /// Decoded output columns, one `Vec` per column.
    Cols(Vec<Vec<Value>>),
    /// Raw (undecoded) aggregate columns: at most one value each for a
    /// scalar aggregate, rows ascending by key for a grouped one.
    Raw(Vec<Vec<u64>>),
}

/// A lowering bound to a copy of its scans' data: everything needed to run the
/// compiled pipeline with no reference back to the catalog. Unlike the
/// catalog (whose custom modules are boxed closures), every field here is
/// `Send`, so a `PreparedJob` can be handed to a host worker thread.
#[derive(Debug)]
pub(crate) struct PreparedJob {
    /// Shared with the compiled plan it was bound from: binding a request
    /// copies no plan tree.
    pub(super) lowering: Arc<Lowering>,
    pub(super) cfg: DeviceConfig,
    pub(super) prepared: Vec<PreparedScan>,
    /// What every replica's build asks of `prepared` alike, answered once.
    pub(super) sub_bounds: SubBounds,
    pub(super) factor: usize,
}

/// Host wall-clock a shard spent in each step of its device run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunTimes {
    /// Building the module graphs, including the column uploads.
    pub(crate) build: Duration,
    /// Everything between build and extract: the simulation itself plus
    /// the system set-up and stall accounting around it.
    pub(crate) simulate: Duration,
    /// Reading the sinks back and decoding them.
    pub(crate) extract: Duration,
}

impl RunTimes {
    pub(crate) fn absorb(&mut self, other: RunTimes) {
        self.build += other.build;
        self.simulate += other.simulate;
        self.extract += other.extract;
    }
}

/// Raw output of one shard of a [`PreparedJob`]: the per-batch sink
/// payloads (merged later, in shard order, by [`PreparedJob::gather`])
/// plus the shard's accelerator stats. `Send`, so shards run on
/// independent device-worker threads.
#[derive(Debug)]
pub(crate) struct ShardOut {
    outs: Vec<(JobOut, Vec<ColInfo>)>,
    stats: AccelStats,
    times: RunTimes,
}

impl ShardOut {
    /// The shard's accelerator stats (the serving layer attributes them
    /// to the device that ran the shard).
    pub(crate) fn stats(&self) -> &AccelStats {
        &self.stats
    }

    /// Where the shard's host time went (kept apart from the stats, which
    /// are deterministic and compared bit for bit).
    pub(crate) fn times(&self) -> RunTimes {
        self.times
    }
}

/// Bytes [`genesis_hw::memory::MemorySystem::alloc`] takes for a region of
/// `bytes` bytes (whole lines, never empty).
pub(super) fn line_padded(bytes: usize) -> usize {
    bytes.max(1).div_ceil(LINE_BYTES) * LINE_BYTES
}

impl PreparedCol {
    /// Elements the column holds for the scan rows `rows`.
    fn elems(&self, rows: &Range<usize>) -> usize {
        match &self.lens {
            None => rows.len(),
            // Flattened list columns hold their rows' elements, not one
            // value per row.
            Some(lens) => lens[rows.clone()].iter().map(|&l| l as usize).sum(),
        }
    }
}

impl PreparedScan {
    /// The items rows `rows` hold whole: an explode's exploded positions,
    /// a window's values.
    pub(super) fn items_of(&self, rows: &Range<usize>) -> Range<usize> {
        match &self.explode {
            Some(spec) => spec.out_offsets[rows.start]..spec.out_offsets[rows.end],
            None if rows.is_empty() => 0..0,
            None => 0..self.cols[0].vals.len(),
        }
    }

    /// The rows of this join leaf keyed within `[lo, hi]`: a binary search
    /// of its ascending key column or, for a `PosExplode`, of its rows'
    /// runs of positions, the first and last row trimmed to the positions
    /// in range. A key that does not ascend over the whole leaf gets some
    /// cut, and the build refuses it as it refuses the whole leaf.
    fn reach(&self, key: usize, lo: u64, hi: u64) -> Cut {
        let Some(spec) = &self.explode else {
            let keys = &self.cols[key].vals;
            let start = keys.partition_point(|&k| k < lo);
            return Cut::rows(start..keys.partition_point(|&k| k <= hi).max(start));
        };
        let (pos, off) = (&self.cols[0].vals, &spec.out_offsets);
        let n = |r: usize| off[r + 1] - off[r];
        let first = partition_point(self.rows, |r| pos[r].saturating_add(n(r) as u64) <= lo);
        let end = partition_point(self.rows, |r| pos[r] <= hi).max(first);
        if first == end {
            return Cut::rows(first..end);
        }
        let last = end - 1;
        let skip = lo.saturating_sub(pos[first]).min(n(first) as u64) as usize;
        let keep = hi.saturating_sub(pos[last]).saturating_add(1).min(n(last) as u64) as usize;
        let start = off[first] + skip;
        let items = start..(off[last] + keep).max(start);
        let trimmed = items != self.items_of(&(first..end));
        Cut { rows: first..end, items: trimmed.then_some(items) }
    }

    /// The rows this leaf streams over `cuts`, and the elements each
    /// streamed column uploads for them: what one shard's replicas stream
    /// of the leaf, a row or an item two of them share counted once (a
    /// lone cut is one replica's upload). Never more than the whole leaf.
    fn reach_elems<'c>(&self, cuts: impl Iterator<Item = &'c Cut> + Clone) -> (usize, Vec<usize>) {
        let rows = union(cuts.clone().map(|c| c.rows.clone()).collect());
        let row_count = rows.iter().map(Range::len).sum();
        if cuts.clone().all(|c| c.items.is_none()) {
            let elems = self.streamed().iter().map(|c| rows.iter().map(|r| c.elems(r)).sum());
            return (row_count, elems.collect());
        }
        let items = cuts.map(|c| c.items.clone().unwrap_or_else(|| self.items_of(&c.rows)));
        let items = union(items.collect());
        let item_count = items.iter().map(Range::len).sum();
        if self.explode.is_none() {
            return (row_count, vec![item_count]); // a window's values
        }
        // A trimmed `PosExplode`: a position per row, the rows' CIGARs and,
        // when they stream, the items. An edge row's re-synthesised CIGAR
        // counts as its whole row's, which is never shorter.
        let cigar = rows.iter().map(|r| self.cols[1].elems(r)).sum();
        let mut elems = vec![row_count, cigar, item_count];
        elems.truncate(self.streamed().len());
        (row_count, elems)
    }

    /// Device memory one replica's `cut` of this leaf takes: each streamed
    /// column's elements of [`PreparedScan::reach_elems`] for that lone
    /// cut, line-padded as the memory system allocates them.
    fn cut_bytes(&self, cut: &Cut) -> usize {
        let streamed = self.streamed();
        let padded = |c: &PreparedCol, n: usize| line_padded(n * c.elem_bytes);
        match (&cut.items, &self.explode) {
            (None, _) => streamed.iter().map(|c| padded(c, c.elems(&cut.rows))).sum(),
            (Some(items), None) => padded(&streamed[0], items.len()), // a window's values
            (Some(items), Some(_)) => {
                let counts = [cut.rows.len(), self.cols[1].elems(&cut.rows), items.len()];
                streamed.iter().zip(counts).map(|(c, n)| padded(c, n)).sum()
            }
        }
    }

    /// DMA-in bytes of [`PreparedScan::reach_elems`]' per-column `elems`.
    fn elem_bytes<'s>(&'s self, elems: &'s [usize]) -> impl Iterator<Item = usize> + 's {
        debug_assert_eq!(elems.len(), self.streamed().len(), "one count per streamed column");
        self.streamed().iter().zip(elems).map(|(c, &n)| n * c.elem_bytes)
    }
}

impl PreparedJob {
    /// Rows of the spine scan (the table the pipeline streams over).
    pub(crate) fn spine_rows(&self) -> usize {
        self.prepared[0].rows
    }

    /// Splits the spine scan into at most `shards` contiguous ascending
    /// row ranges, aligned to the paper's (chromosome, `PSIZE`-window)
    /// partitions when the spine carries `CHR` + `POS`/`REFPOS` columns
    /// (a shard boundary never splits a run of rows sharing a partition
    /// key, which the spine binds whether or not it streams it); tables
    /// without genomic coordinates fall back to an equal
    /// row split. Always covers `0..spine_rows` exactly, so gathering
    /// the shard outputs in range order reproduces the unsharded merge.
    pub(crate) fn shard_ranges(&self, shards: usize) -> Vec<Range<usize>> {
        let n = self.spine_rows();
        if shards <= 1 || n < 2 {
            return std::iter::once(0..n).collect();
        }
        let spine = &self.prepared[0];
        let chr = spine.cols.iter().find(|c| c.name == CHR_COL);
        let pos = spine.cols.iter().find(|c| POS_COLS.contains(&c.name.as_str()));
        let (Some(chr), Some(pos)) = (chr, pos) else {
            return split_ranges(n, shards);
        };
        if chr.vals.len() != n || pos.vals.len() != n {
            return split_ranges(n, shards);
        }
        let psize = u64::from(self.cfg.psize.max(1));
        let key = |i: usize| (chr.vals[i], pos.vals[i] / psize);
        // Candidate cut points: row indices where the partition key
        // changes between consecutive rows.
        let mut out = Vec::with_capacity(shards);
        let target = n.div_ceil(shards);
        let mut start = 0;
        let mut prev = key(0);
        for i in 1..n {
            let k = key(i);
            let boundary = k != prev;
            prev = k;
            if boundary && i - start >= target && out.len() + 1 < shards {
                out.push(start..i);
                start = i;
            }
        }
        out.push(start..n);
        out
    }

    /// Runs one shard of the job on `cfg`: splits `range` of the spine
    /// scan across the replication factor, cuts every other leaf to each
    /// replica's reach ([`PreparedJob::cuts`]), simulates the batches, and
    /// returns the raw sink payloads plus stats. Merging and host
    /// epilogues happen once, over all shards, in [`PreparedJob::gather`]
    /// — applying an epilogue (e.g. `LIMIT`) per shard would corrupt the
    /// result. `slot` keys the shard's fault dice (its dispatch sequence
    /// number when served; 0 for an unsharded run).
    pub(crate) fn run_range(
        &self,
        cfg: &DeviceConfig,
        range: Range<usize>,
        slot: u64,
    ) -> Result<ShardOut, CoreError> {
        let mut ranges: Vec<Range<usize>> = split_ranges(range.len(), self.factor)
            .into_iter()
            .map(|r| range.start + r.start..range.start + r.end)
            .collect();
        if ranges.is_empty() {
            ranges.push(range.start..range.start);
        }
        let leaves = self.prepared.len();
        let mut cuts = Vec::with_capacity(ranges.len() * leaves);
        for r in ranges {
            self.cuts(r, &mut cuts);
        }
        let jobs: Vec<&[Cut]> = cuts.chunks(leaves).collect();
        let run_cfg = cfg.clone().with_pipelines(self.factor);
        let core = &self.lowering.core;
        let scans = (&self.prepared[..], &self.sub_bounds);
        let reserve = self.device_bytes(&jobs);
        let (build_ns, extract_ns) = (AtomicU64::new(0), AtomicU64::new(0));
        let timed = |ns: &AtomicU64, start: Instant| {
            let spent = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ns.fetch_add(spent, Ordering::Relaxed);
        };
        let run_start = Instant::now();
        let (outs, mut stats) = run_batches(
            &run_cfg,
            slot,
            &jobs,
            |sys, group, job| {
                let start = Instant::now();
                // The replicas share one batch (`factor` pipelines per
                // system), so its first build reserves the whole batch's
                // device memory instead of growing it column by column.
                if group == 0 {
                    sys.reserve_mem(reserve);
                }
                let per_row = self.lowering.each_row.is_some();
                let mut ctx = BuildCtx::new(scans, job, group_domain_cap(cfg), per_row, false);
                let mut b = PipelineBuilder::new(sys, group);
                // Every replica's sink has the analysis' shape.
                let built = build_core(&mut b, &mut ctx, core).map(|(built, _)| built);
                timed(&build_ns, start);
                built
            },
            |sys, built, _| {
                let start = Instant::now();
                let out = extract_job(sys, built, &self.lowering.kind);
                timed(&extract_ns, start);
                out
            },
        )?;
        let build = Duration::from_nanos(build_ns.into_inner());
        let extract = Duration::from_nanos(extract_ns.into_inner());
        let times = RunTimes {
            build,
            simulate: run_start.elapsed().saturating_sub(build + extract),
            extract,
        };
        // DMA-in: the shard streams the union of its replicas' cuts of
        // every leaf — its share of the spine, and the whole of a leaf
        // nothing cuts, so every shard replays it. For the whole-spine
        // range with nothing cut this is exactly the unsharded job's
        // transfer volume. Pushed-vs-residual visibility: rows the scans
        // examined against pushed predicates (the spine's attributed to
        // this range, every row of any other leaf) vs rows that entered
        // the pipeline (identical when nothing was pushed or cut).
        for (idx, p) in self.prepared.iter().enumerate() {
            let (rows, elems) = p.reach_elems(jobs.iter().map(|job| &job[idx]));
            stats.dma_in_bytes += p.elem_bytes(&elems).sum::<usize>() as u64;
            let scanned = if idx == 0 { p.scanned_rows(&range) } else { p.rows_scanned };
            stats.rows_scanned += scanned as u64;
            stats.rows_emitted += rows as u64;
        }
        stats.dma_transfers += outs.len() as u64 * 2;
        Ok(ShardOut { outs, stats, times })
    }

    /// What the replica over spine rows `spine` streams of each leaf,
    /// appended to `out` in leaf order: the spine's slice; for each
    /// [`Reach`], the join leaf's rows keyed within the slice's
    /// `[min, max]` of the left key's spine column; for a reference
    /// window, `[min WINDOW.START, max WINDOW.END)` of the slice's loop
    /// rows; every other leaf whole. An empty slice cuts them empty.
    fn cuts(&self, spine: Range<usize>, out: &mut Vec<Cut>) {
        let (first, rest) = self.prepared.split_first().expect("a lowering scans a spine");
        let start = out.len();
        out.push(Cut::rows(spine.clone()));
        out.extend(rest.iter().map(|p| Cut::rows(0..p.rows)));
        let cuts = &mut out[start..];
        let stats = |col: &PreparedCol| range_stats(&col.vals[spine.clone()]);
        for reach in &self.lowering.reaches {
            let (_, lo, hi) = stats(&first.cols[reach.spine]);
            let leaf = &self.prepared[reach.leaf];
            cuts[reach.leaf] = hi.map_or(Cut::rows(0..0), |hi| leaf.reach(reach.key, lo, hi));
        }
        let bound = |name: &str| first.cols.iter().find(|c| c.name == name).map(stats);
        for (cut, p) in cuts.iter_mut().zip(&self.prepared).skip(1) {
            let Some(base) = p.window else { continue };
            let (Some((_, lo, Some(_))), Some((_, _, Some(hi)))) =
                (bound(WINDOW_BOUNDS[0]), bound(WINDOW_BOUNDS[1]))
            else {
                cut.items = Some(0..0);
                continue;
            };
            let len = p.cols[0].vals.len();
            let at = |pos: u64| usize::try_from(pos.saturating_sub(base)).map_or(len, |i| i.min(len));
            cut.items = Some(at(lo)..at(hi).max(at(lo)));
        }
    }

    /// Device memory one batch over the replicas' `jobs` allocates up
    /// front: every replica's cut of every leaf — its slice of the spine,
    /// every other leaf as far as a cut reaches — and the sinks whose
    /// share is known before the build. A stream sink is sized by the rows
    /// it can receive and a scalar one by its items, so theirs is exact.
    /// A GROUP BY drain writes its replica's key window, which only the
    /// build derives: the store grows for it instead of reserving the
    /// whole key domain once per replica. A capacity hint either way,
    /// never an address.
    fn device_bytes(&self, jobs: &[&[Cut]]) -> usize {
        let exploded = |p: &PreparedScan, cut: &Cut| {
            p.explode.as_ref().map_or(0, |_| cut.items.clone().unwrap_or_else(|| p.items_of(&cut.rows)).len())
        };
        jobs.iter()
            .map(|job| {
                let mut bytes = 0;
                let mut rows_bound = job[0].rows.len();
                for (p, cut) in self.prepared.iter().zip(*job) {
                    bytes += p.cut_bytes(cut);
                    rows_bound = rows_bound.max(exploded(p, cut));
                }
                bytes
                    + match self.lowering.kind {
                        SinkKind::Stream => {
                            self.lowering.cols_names.len() * line_padded(rows_bound * 8)
                        }
                        _ => self.lowering.sink_bytes,
                    }
            })
            .sum()
    }

    /// Gathers shard outputs (in shard-range order), merges them exactly
    /// as the unsharded run merges its per-batch outputs, sums the
    /// stats, and replays host epilogues through the software engine.
    /// The merge is invariant under any partition of the spine into
    /// ascending contiguous ranges — stream sinks concatenate in order,
    /// scalar and grouped sinks combine associatively — so the gathered
    /// table is bit-identical to the unsharded run's.
    pub(crate) fn gather(&self, parts: Vec<ShardOut>) -> Result<(Table, AccelStats), CoreError> {
        let mut stats = AccelStats::default();
        let mut outs = Vec::new();
        for part in parts {
            stats.absorb(part.stats);
            outs.extend(part.outs);
        }
        let cols = rebuild_cols(&self.lowering.cols_names, &outs);
        let merged = self.lowering.merge(outs, &cols)?;
        stats.dma_out_bytes += merged.byte_size();
        let table = self.lowering.apply_epilogues(merged)?;
        Ok((table, stats))
    }

    /// Runs the job unsharded: splits the spine scan across the
    /// replication factor, simulates the batches, merges per-job results
    /// and replays host epilogues through the software engine.
    pub(crate) fn run(self) -> Result<(Table, AccelStats), CoreError> {
        let whole = 0..self.spine_rows();
        let part = self.run_range(&self.cfg.clone(), whole, 0)?;
        self.gather(vec![part])
    }
}

impl Lowering {
    /// Merges per-job outputs column-wise: every sink kind produces one
    /// decoded `Vec<Value>` per output column, and the table is assembled
    /// from those columns in one step.
    fn merge(&self, outs: Vec<(JobOut, Vec<ColInfo>)>, cols: &[ColInfo]) -> Result<Table, CoreError> {
        let columns: Vec<Vec<Value>> = match &self.kind {
            SinkKind::Stream => {
                let mut columns: Vec<Vec<Value>> = vec![Vec::new(); cols.len()];
                for (out, _) in outs {
                    let JobOut::Cols(job) = out else {
                        return Err(CoreError::Host("stream sink produced non-rows".into()));
                    };
                    for (acc, col) in columns.iter_mut().zip(job) {
                        if acc.is_empty() {
                            *acc = col;
                        } else {
                            acc.extend(col);
                        }
                    }
                }
                columns
            }
            SinkKind::Scalar(kinds) => {
                let mut acc: Vec<(u64, Option<u64>)> = vec![(0, None); kinds.len()];
                for (out, _) in outs {
                    let JobOut::Raw(parts) = out else {
                        return Err(CoreError::Host("scalar sink produced non-scalars".into()));
                    };
                    for ((slot, &kind), col) in acc.iter_mut().zip(kinds).zip(parts) {
                        let val = col.first().copied();
                        match kind {
                            ScalarKind::Count | ScalarKind::Sum => {
                                slot.0 += val.unwrap_or(0);
                            }
                            ScalarKind::Min | ScalarKind::Max => {
                                let pick =
                                    if kind == ScalarKind::Min { u64::min } else { u64::max };
                                slot.1 = match (slot.1, val) {
                                    (Some(a), Some(b)) => Some(pick(a, b)),
                                    (a, b) => a.or(b),
                                };
                            }
                        }
                    }
                }
                kinds
                    .iter()
                    .zip(&acc)
                    .map(|(kind, slot)| {
                        vec![match kind {
                            ScalarKind::Count | ScalarKind::Sum => Value::U64(slot.0),
                            ScalarKind::Min | ScalarKind::Max => {
                                slot.1.map_or(Value::Null, Value::U64)
                            }
                        }]
                    })
                    .collect()
            }
            SinkKind::Grouped(roles) => {
                let key_pos = roles
                    .iter()
                    .position(|r| *r == GroupRole::Key)
                    .ok_or_else(|| CoreError::Host("grouped sink without key column".into()))?;
                let runs: Vec<Vec<Vec<u64>>> = outs
                    .into_iter()
                    .map(|(out, _)| match out {
                        JobOut::Raw(job) => Ok(job),
                        JobOut::Cols(_) => {
                            Err(CoreError::Host("grouped sink produced non-groups".into()))
                        }
                    })
                    .collect::<Result<_, _>>()?;
                let mut columns: Vec<Vec<Value>> = merge_runs(&runs, roles, key_pos)
                    .into_iter()
                    .zip(roles)
                    .zip(cols)
                    .map(|((a, role), col)| {
                        a.into_iter()
                            .map(|raw| match (role, col.decode) {
                                (GroupRole::Key, Decode::Bool) => Value::Bool(raw != 0),
                                _ => Value::U64(raw),
                            })
                            .collect()
                    })
                    .collect();
                // The leading sort on the key (`analyze` requires one) is
                // the merge's own order, or its reversal.
                if let Some(Epilogue::Sort { keys }) = self.epilogues.first() {
                    if keys.first().is_some_and(|&(_, desc)| desc) {
                        columns.iter_mut().for_each(|c| c.reverse());
                    }
                }
                columns
            }
        };
        let fields: Vec<Field> =
            cols.iter().map(|c| Field::new(&c.name, DataType::Cell)).collect();
        Ok(Table::from_columns(
            Schema::new(fields),
            columns.into_iter().map(Column::Cell).collect(),
        )?)
    }

    fn apply_epilogues(&self, table: Table) -> Result<Table, CoreError> {
        // A grouped merge already stands in its leading sort's order.
        let skip = usize::from(matches!(self.kind, SinkKind::Grouped(_)));
        let epilogues = self.epilogues.get(skip..).unwrap_or_default();
        if epilogues.is_empty() {
            return Ok(table);
        }
        let mut catalog = Catalog::new();
        catalog.register(HW_OUT, table);
        let mut plan = LogicalPlan::Scan { table: HW_OUT.to_owned(), partition: None };
        for e in epilogues {
            plan = match e {
                Epilogue::Sort { keys } => {
                    LogicalPlan::Sort { input: Box::new(plan), keys: keys.clone() }
                }
                Epilogue::Limit { offset, count } => LogicalPlan::Limit {
                    input: Box::new(plan),
                    offset: offset.clone(),
                    count: count.clone(),
                },
            };
        }
        execute_plan(&plan, &catalog, &Env::default())
            .map_err(|e| CoreError::Host(format!("host epilogue: {e}")))
    }
}

/// Merges per-job grouped runs, each ascending by the unique key in
/// column `key_pos`, into one ascending run: a key several runs hold
/// appears once, its other columns summed (wrapping, as the scratchpads
/// add). The runs merge in order, each with only the merged rows keyed at
/// or past its first key: the replicas of consecutive spine slices hold
/// mostly disjoint, ascending key windows, so a run mostly appends (runs
/// that all span one domain cost a pass over the merged rows each).
pub(super) fn merge_runs(
    runs: &[Vec<Vec<u64>>],
    roles: &[GroupRole],
    key_pos: usize,
) -> Vec<Vec<u64>> {
    let total = runs.iter().map(|job| job[key_pos].len()).sum();
    let mut acc: Vec<Vec<u64>> = (0..roles.len()).map(|_| Vec::with_capacity(total)).collect();
    let mut tail: Vec<Vec<u64>> = vec![Vec::new(); roles.len()];
    for run in runs {
        let keys = &run[key_pos];
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "run ascends");
        let Some(&first) = keys.first() else { continue };
        let at = acc[key_pos].partition_point(|&k| k < first);
        if at == acc[key_pos].len() {
            for (a, col) in acc.iter_mut().zip(run) {
                a.extend_from_slice(col);
            }
            continue;
        }
        for (t, a) in tail.iter_mut().zip(&mut acc) {
            t.clear();
            t.extend_from_slice(&a[at..]);
            a.truncate(at);
        }
        let (tk, (mut i, mut j)) = (&tail[key_pos], (0, 0));
        while i < tk.len() || j < keys.len() {
            let from_tail = j == keys.len() || (i < tk.len() && tk[i] <= keys[j]);
            let from_run = i == tk.len() || (j < keys.len() && keys[j] <= tk[i]);
            for ((role, a), (t, r)) in roles.iter().zip(&mut acc).zip(tail.iter().zip(run)) {
                a.push(match (from_tail, from_run) {
                    (true, true) if *role != GroupRole::Key => t[i].wrapping_add(r[j]),
                    (true, _) => t[i],
                    (false, _) => r[j],
                });
            }
            i += usize::from(from_tail);
            j += usize::from(from_run);
        }
    }
    acc
}

/// Column metadata for merging: taken from the first job's build (all jobs
/// build identical structure), falling back to names only.
fn rebuild_cols(names: &[String], outs: &[(JobOut, Vec<ColInfo>)]) -> Vec<ColInfo> {
    outs.first().map_or_else(
        || names.iter().map(|n| ColInfo::new(n, Decode::U64)).collect(),
        |(_, cols)| cols.clone(),
    )
}

/// Reads one writer's output column back from device memory, mapping each
/// raw 8-byte element through `f` on the way out.
fn read_writer<T>(
    sys: &System,
    id: ModuleId,
    addr: u64,
    f: impl Fn(u64) -> T,
) -> Result<Vec<T>, CoreError> {
    let w = sys
        .module_as::<MemWriter>(id)
        .ok_or_else(|| CoreError::Host("sink writer disappeared".into()))?;
    let n = w.elems_written() as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    Ok(sys
        .host_read(addr, n * 8)
        .chunks_exact(8)
        .map(|c| f(u64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes"))))
        .collect())
}

fn decode_value(raw: u64, col: &ColInfo) -> Value {
    if col.nullable {
        match raw {
            MARKER_INS => return Value::Ins,
            MARKER_DEL => return Value::Del,
            _ => {}
        }
    }
    match col.decode {
        Decode::U64 => Value::U64(raw),
        Decode::Bool => Value::Bool(raw != 0),
    }
}

/// Fails unless every output column holds the same number of rows.
fn check_row_counts<T>(cols: &[Vec<T>], what: &str) -> Result<(), CoreError> {
    let n = cols.first().map_or(0, Vec::len);
    if cols.iter().any(|c| c.len() != n) {
        return Err(CoreError::Verification(format!(
            "{what} column writers disagree on row count"
        )));
    }
    Ok(())
}

fn extract_job(
    sys: &System,
    built: Built,
    kind: &SinkKind,
) -> Result<(JobOut, Vec<ColInfo>), CoreError> {
    let out = if let SinkKind::Stream = kind {
        let cols: Vec<Vec<Value>> = built
            .writers
            .iter()
            .zip(&built.cols)
            .map(|(&(id, addr), col)| read_writer(sys, id, addr, |raw| decode_value(raw, col)))
            .collect::<Result<_, _>>()?;
        check_row_counts(&cols, "output")?;
        JobOut::Cols(cols)
    } else {
        let raw: Vec<Vec<u64>> = built
            .writers
            .iter()
            .map(|&(id, addr)| read_writer(sys, id, addr, |raw| raw))
            .collect::<Result<_, _>>()?;
        if let SinkKind::Grouped(_) = kind {
            check_row_counts(&raw, "grouped")?;
        }
        JobOut::Raw(raw)
    };
    Ok((out, built.cols))
}
