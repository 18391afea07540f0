//! Running a bound lowering: what each replica streams of each leaf
//! ([`Cut`], [`Reach`]), one shard's batches on the device, and
//! gathering, merging and finishing the shards' outputs on the host.

use super::bind::{as_u64, by_width, PreparedCol, PreparedScan, WINDOW_BOUNDS};
use super::bounds::{range_stats, SubBounds};
use super::build::{build_core, BuildCtx, Built, SinkFlags};
use super::{
    group_domain_cap, Epilogue, GroupRole, Lowering, SinkKind, CHR_COL, POS_COLS,
};
use crate::builder::PipelineBuilder;
use crate::device::{run_batches, split_ranges, DeviceConfig};
use crate::error::CoreError;
use crate::perf::AccelStats;
use genesis_hw::memory::LINE_BYTES;
use genesis_hw::modules::mem_writer::MemWriter;
use genesis_hw::system::ModuleId;
use genesis_hw::System;
use genesis_sql::ast::AggFn;
use genesis_sql::exec::{limit_table, sort_table};
use genesis_types::{Column, DataType, Field, Schema, Table, Value};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// 8-byte Memory Writer encoding of [`Value::Ins`] (all mask bits set).
const MARKER_INS: u64 = u64::MAX;
/// 8-byte Memory Writer encoding of [`Value::Del`] (mask minus one).
const MARKER_DEL: u64 = u64::MAX - 1;

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

/// A lowering bound to a copy of its scans' data: everything needed to run the
/// compiled pipeline with no reference back to the catalog. The job runs on
/// a host worker thread after `submit` has returned, so it outlives the
/// `&Catalog` borrow it was bound from and owns what it reads.
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
    /// Reading the sinks back.
    pub(crate) extract: Duration,
}

impl RunTimes {
    pub(crate) fn absorb(&mut self, other: RunTimes) {
        self.build += other.build;
        self.simulate += other.simulate;
        self.extract += other.extract;
    }
}

/// Raw output of one shard of a [`PreparedJob`]: each replica's sink
/// columns as the raw words its writers stored and the union of the
/// replicas' sink flags (merged and decoded later, in shard order, by
/// [`PreparedJob::gather`]) plus the shard's accelerator stats. `Send`,
/// so shards run on independent device-worker threads.
#[derive(Debug)]
pub(crate) struct ShardOut {
    outs: Vec<Vec<Vec<u64>>>,
    flags: SinkFlags,
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
fn line_padded(bytes: usize) -> usize {
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
            return by_width!(&self.cols[key].vals, keys => {
                let start = keys.partition_point(|&k| as_u64(k) < lo);
                Cut::rows(start..keys.partition_point(|&k| as_u64(k) <= hi).max(start))
            });
        };
        let (pos, off) = (&self.cols[0].vals, &spec.out_offsets);
        let pos = |r: usize| pos.get(r);
        let n = |r: usize| off[r + 1] - off[r];
        let first = partition_point(self.rows, |r| pos(r).saturating_add(n(r) as u64) <= lo);
        let end = partition_point(self.rows, |r| pos(r) <= hi).max(first);
        if first == end {
            return Cut::rows(first..end);
        }
        let last = end - 1;
        let skip = lo.saturating_sub(pos(first)).min(n(first) as u64) as usize;
        let keep = hi.saturating_sub(pos(last)).saturating_add(1).min(n(last) as u64) as usize;
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

/// Cuts the rows of a spine's partition key, `chr` and `pos` at their
/// widths (at least one row), into at most `shards` ascending ranges,
/// each but the last at least `len / shards` rows (rounded up) long and
/// ending where the (chromosome, `psize`-window) key changes.
fn key_cuts<C, P>(chr: &[C], pos: &[P], psize: u64, shards: usize) -> Vec<Range<usize>>
where
    C: Copy + PartialEq,
    P: Copy + Into<u64>,
{
    let n = chr.len();
    let key = |i: usize| (chr[i], pos[i].into() / psize);
    // Candidate cut points: row indices where the partition key changes
    // between consecutive rows.
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
        by_width!(&chr.vals, chr => by_width!(&pos.vals, pos => key_cuts(chr, pos, psize, shards)))
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
        let flags = Mutex::new(SinkFlags::default());
        let timed = |ns: &AtomicU64, start: Instant| {
            let spent = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ns.fetch_add(spent, Ordering::Relaxed);
        };
        let run_start = Instant::now();
        let (outs, mut stats) = run_batches(
            &run_cfg,
            &self.lowering.pool,
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
                let (raw, replica) = extract_job(sys, built, &self.lowering.kind)?;
                // One store per update: a poisoned lock still holds the
                // union of the replicas read back before the panic.
                let mut shard = flags.lock().unwrap_or_else(PoisonError::into_inner);
                *shard = shard.union(replica);
                timed(&extract_ns, start);
                Ok(raw)
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
        let flags = flags.into_inner().unwrap_or_else(PoisonError::into_inner);
        Ok(ShardOut { outs, flags, stats, times })
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
        let stats = |col: &PreparedCol| by_width!(&col.vals, v => range_stats(&v[spine.clone()]));
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
    /// it can receive, a column per output field, and a scalar one holds
    /// one word per item, so theirs is exact.
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
                    + match &self.lowering.kind {
                        SinkKind::Stream => {
                            self.lowering.schema.fields().len() * line_padded(rows_bound * 8)
                        }
                        SinkKind::Scalar(kinds) => kinds.len() * line_padded(8),
                        SinkKind::Grouped(_) => 0,
                    }
            })
            .sum()
    }

    /// Gathers shard outputs (in shard-range order), merges them exactly
    /// as the unsharded run merges its per-batch outputs, sums the
    /// stats, and runs the host epilogues.
    /// The merge is invariant under any partition of the spine into
    /// ascending contiguous ranges — stream sinks concatenate in order,
    /// scalar and grouped sinks combine associatively — so the gathered
    /// table is bit-identical to the unsharded run's.
    pub(crate) fn gather(&self, parts: Vec<ShardOut>) -> Result<(Table, AccelStats), CoreError> {
        let mut stats = AccelStats::default();
        let mut outs = Vec::new();
        let mut flags = SinkFlags::default();
        for part in parts {
            stats.absorb(part.stats);
            flags = flags.union(part.flags);
            outs.extend(part.outs);
        }
        let merged = self.lowering.merge(outs, flags)?;
        // The sink writers stored every output cell as one 8-byte word,
        // whatever type the gather builds it at.
        stats.dma_out_bytes += (merged.num_rows() * merged.num_columns() * 8) as u64;
        let table = self.lowering.apply_epilogues(merged)?;
        Ok((table, stats))
    }

    /// Runs the job unsharded: splits the spine scan across the
    /// replication factor, simulates the batches, merges per-job results
    /// and runs the host epilogues.
    pub(crate) fn run(self) -> Result<(Table, AccelStats), CoreError> {
        let whole = 0..self.spine_rows();
        let part = self.run_range(&self.cfg.clone(), whole, 0)?;
        self.gather(vec![part])
    }
}

impl Lowering {
    /// Merges the replicas' raw sink columns column-wise — stream rows
    /// concatenate, scalar partials combine, grouped runs merge by key —
    /// and builds each column once, at its output-schema type, a `Cell`
    /// column decoded by the union of the replicas' `flags`
    /// ([`typed_column`]).
    fn merge(&self, outs: Vec<Vec<Vec<u64>>>, flags: SinkFlags) -> Result<Table, CoreError> {
        let fields = self.schema.fields().iter().enumerate().map(|(i, f)| (f, flags.col(i)));
        let columns: Vec<Column> = match &self.kind {
            SinkKind::Stream => {
                let mut raw: Vec<Vec<u64>> = vec![Vec::new(); self.schema.fields().len()];
                for job in outs {
                    for (acc, col) in raw.iter_mut().zip(job) {
                        if acc.is_empty() {
                            *acc = col;
                        } else {
                            acc.extend(col);
                        }
                    }
                }
                raw.into_iter()
                    .zip(fields)
                    .map(|(raw, (f, col))| typed_column(raw, f.dtype, col))
                    .collect()
            }
            SinkKind::Scalar(kinds) => {
                // COUNT and SUM start at 0; MIN and MAX at no value.
                let start = |k: &AggFn| matches!(k, AggFn::Count | AggFn::Sum).then_some(0);
                let mut acc: Vec<Option<u64>> = kinds.iter().map(start).collect();
                for parts in outs {
                    for ((slot, &kind), col) in acc.iter_mut().zip(kinds).zip(parts) {
                        let Some(&v) = col.first() else { continue };
                        *slot = Some(match (kind, *slot) {
                            (_, None) => v,
                            (AggFn::Min, Some(a)) => a.min(v),
                            (AggFn::Max, Some(a)) => a.max(v),
                            (AggFn::Count | AggFn::Sum, Some(a)) => a + v,
                        });
                    }
                }
                // MIN/MAX over no rows is NULL, which only a `Cell` holds.
                let column = |(word, (f, col)): (Option<u64>, (&Field, _))| {
                    word.map_or_else(
                        || Column::Cell(vec![Value::Null]),
                        |w| typed_column(vec![w], f.dtype, col),
                    )
                };
                acc.into_iter().zip(fields).map(column).collect()
            }
            SinkKind::Grouped(roles) => {
                let key_pos = roles
                    .iter()
                    .position(|r| *r == GroupRole::Key)
                    .ok_or_else(|| CoreError::Host("grouped sink without key column".into()))?;
                let mut raw = merge_runs(&outs, roles, key_pos);
                // The leading sort on the key (`analyze` requires one) is
                // the merge's own order, or its reversal.
                if let Some(Epilogue::Sort { keys }) = self.epilogues.first() {
                    if keys.first().is_some_and(|&(_, desc)| desc) {
                        raw.iter_mut().for_each(|c| c.reverse());
                    }
                }
                raw.into_iter()
                    .zip(fields)
                    .map(|(raw, (f, col))| typed_column(raw, f.dtype, col))
                    .collect()
            }
        };
        let fields = self.schema.fields().iter().zip(&columns);
        let schema = Schema::new(fields.map(|(f, c)| Field::new(&f.name, c.dtype())).collect());
        Ok(Table::from_columns(schema, columns)?)
    }

    /// Runs the peeled `Sort`/`Limit` epilogues on the merged table, in
    /// order, by the software engine's own functions.
    fn apply_epilogues(&self, mut table: Table) -> Result<Table, CoreError> {
        // A grouped merge already stands in its leading sort's order.
        let skip = usize::from(matches!(self.kind, SinkKind::Grouped(_)));
        for e in self.epilogues.get(skip..).unwrap_or_default() {
            table = match e {
                Epilogue::Sort { keys } => sort_table(&table, keys),
                Epilogue::Limit { offset, count } => limit_table(&table, *offset, *count),
            }
            .map_err(|e| CoreError::Host(format!("host epilogue: {e}")))?;
        }
        Ok(table)
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

/// Reads one writer's output column back from device memory as the raw
/// 8-byte words it stored.
fn read_writer(sys: &System, id: ModuleId, addr: u64) -> Result<Vec<u64>, CoreError> {
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
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes")))
        .collect())
}

/// One output column from its merged raw words, at its output-schema
/// type: a `U64` column is the words themselves, a narrower number or a
/// `Bool` one copy, and only a `Cell` column a [`Value`] per word, by its
/// sink flags `(nullable, boolean)`: a nullable column's marker words are
/// `Ins`/`Del`, a boolean column's words `Bool`s. A word too wide for its
/// type (the catalog column has widened since the plan compiled) keeps
/// the column at `U64` rather than lose bits.
fn typed_column(words: Vec<u64>, dtype: DataType, col: (bool, bool)) -> Column {
    fn narrow<T: TryFrom<u64>>(words: Vec<u64>, typed: fn(Vec<T>) -> Column) -> Column {
        match words.iter().map(|&w| T::try_from(w)).collect() {
            Ok(narrow) => typed(narrow),
            Err(_) => Column::U64(words),
        }
    }
    match dtype {
        DataType::U64 => Column::U64(words),
        DataType::U32 => narrow(words, Column::U32),
        DataType::U16 => narrow(words, Column::U16),
        DataType::U8 => narrow(words, Column::U8),
        DataType::Bool => Column::Bool(words.into_iter().map(|w| w != 0).collect()),
        // `Cell`: no sink writes strings or lists, which the lowering
        // streams no more than it reads them.
        _ => Column::Cell(words.into_iter().map(|w| decode_value(w, col)).collect()),
    }
}

fn decode_value(raw: u64, (nullable, boolean): (bool, bool)) -> Value {
    match raw {
        MARKER_INS if nullable => Value::Ins,
        MARKER_DEL if nullable => Value::Del,
        _ if boolean => Value::Bool(raw != 0),
        _ => Value::U64(raw),
    }
}

/// Fails unless every output column holds the same number of rows.
fn check_row_counts(cols: &[Vec<u64>], what: &str) -> Result<(), CoreError> {
    let n = cols.first().map_or(0, Vec::len);
    if cols.iter().any(|c| c.len() != n) {
        return Err(CoreError::Verification(format!(
            "{what} column writers disagree on row count"
        )));
    }
    Ok(())
}

/// Reads a replica's sink writers back raw, one column per writer, with
/// the flags its build gave them; the gather decodes them
/// ([`Lowering::merge`]).
fn extract_job(
    sys: &System,
    built: Built,
    kind: &SinkKind,
) -> Result<(Vec<Vec<u64>>, SinkFlags), CoreError> {
    let raw: Vec<Vec<u64>> = built
        .writers
        .iter()
        .map(|&(id, addr)| read_writer(sys, id, addr))
        .collect::<Result<_, _>>()?;
    match kind {
        SinkKind::Stream => check_row_counts(&raw, "output")?,
        SinkKind::Grouped(_) => check_row_counts(&raw, "grouped")?,
        SinkKind::Scalar(_) => {}
    }
    Ok((raw, built.flags))
}
