//! Base Quality Score Recalibration (paper §IV-D).
//!
//! The covariate table construction stage bins every aligned, non-SNP base
//! by (read group, reported quality, cycle) and by (read group, reported
//! quality, dinucleotide context), counting observations and empirical
//! errors per bin. The quality update stage adjusts each base quality from
//! the empirical error rates.
//!
//! ## Canonical covariate semantics
//!
//! Shared bit-for-bit with the hardware pipeline (`genesis-hw`'s BinIDGen):
//!
//! * only aligned (`M`) bases are observed; insertions and soft clips are
//!   not compared against the reference, deletions carry no quality;
//! * bases at known SNP sites are masked out entirely;
//! * the cycle covariate is [`genesis_types::read::cycle_covariate`]
//!   (forward reads use `[0, L)`, reverse reads `[L, 2L)`);
//! * the context covariate pairs the previous read base (aligned or
//!   inserted, in `SEQ` order) with the current base; the first base of a
//!   read and the base following a deletion have no context and are
//!   counted only in the cycle table.

use genesis_types::base::context_id;
use genesis_types::read::cycle_covariate;
use genesis_types::{Base, Qual, ReadRecord, ReferenceGenome};

/// Number of dinucleotide contexts.
const NUM_CONTEXTS: u32 = 16;
/// Number of representable reported quality scores.
const NUM_QUALS: u32 = 64;

/// Per-read-group covariate count tables (paper Figure 12's four SPMs:
/// TotalCount/ErrorCount × cycle-bin/context-bin).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CovariateTable {
    read_groups: u8,
    read_len: u32,
    num_cycle_values: u32,
    cycle_total: Vec<Vec<u64>>,
    cycle_error: Vec<Vec<u64>>,
    ctx_total: Vec<Vec<u64>>,
    ctx_error: Vec<Vec<u64>>,
}

impl CovariateTable {
    /// Creates an empty table for `read_groups` lanes of `read_len`-bp reads.
    #[must_use]
    pub fn new(read_groups: u8, read_len: u32) -> CovariateTable {
        let num_cycle_values = 2 * read_len;
        let cycle_bins = (NUM_QUALS * num_cycle_values) as usize;
        let ctx_bins = (NUM_QUALS * NUM_CONTEXTS) as usize;
        CovariateTable {
            read_groups,
            read_len,
            num_cycle_values,
            cycle_total: vec![vec![0; cycle_bins]; read_groups as usize],
            cycle_error: vec![vec![0; cycle_bins]; read_groups as usize],
            ctx_total: vec![vec![0; ctx_bins]; read_groups as usize],
            ctx_error: vec![vec![0; ctx_bins]; read_groups as usize],
        }
    }

    /// Read length the cycle covariate was configured for.
    #[must_use]
    pub fn read_len(&self) -> u32 {
        self.read_len
    }

    /// Number of cycle-covariate values (`2 × read_len`, paper footnote 3).
    #[must_use]
    pub fn num_cycle_values(&self) -> u32 {
        self.num_cycle_values
    }

    /// Number of read groups.
    #[must_use]
    pub fn read_groups(&self) -> u8 {
        self.read_groups
    }

    /// The paper's `b1` bin id: `q × #cycle_values + cycle`.
    #[must_use]
    pub fn cycle_bin(&self, q: u8, cov: u32) -> usize {
        (u32::from(q) * self.num_cycle_values + cov) as usize
    }

    /// The paper's `b2` bin id: `q × 16 + context`.
    #[must_use]
    pub fn context_bin(q: u8, ctx: u8) -> usize {
        (u32::from(q) * NUM_CONTEXTS + u32::from(ctx)) as usize
    }

    /// Records one observed base.
    pub fn record(&mut self, rg: u8, q: u8, cov: u32, ctx: Option<u8>, is_error: bool) {
        let g = rg as usize;
        let b1 = self.cycle_bin(q, cov);
        self.cycle_total[g][b1] += 1;
        if is_error {
            self.cycle_error[g][b1] += 1;
        }
        if let Some(ctx) = ctx {
            let b2 = CovariateTable::context_bin(q, ctx);
            self.ctx_total[g][b2] += 1;
            if is_error {
                self.ctx_error[g][b2] += 1;
            }
        }
    }

    /// Merges another table (e.g. per-partition accelerator results).
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn merge(&mut self, other: &CovariateTable) {
        assert_eq!(self.read_groups, other.read_groups);
        assert_eq!(self.num_cycle_values, other.num_cycle_values);
        for g in 0..self.read_groups as usize {
            for (a, b) in self.cycle_total[g].iter_mut().zip(&other.cycle_total[g]) {
                *a += b;
            }
            for (a, b) in self.cycle_error[g].iter_mut().zip(&other.cycle_error[g]) {
                *a += b;
            }
            for (a, b) in self.ctx_total[g].iter_mut().zip(&other.ctx_total[g]) {
                *a += b;
            }
            for (a, b) in self.ctx_error[g].iter_mut().zip(&other.ctx_error[g]) {
                *a += b;
            }
        }
    }

    /// Adds raw per-bin counts for one read group (used to ingest the
    /// accelerator's drained SPM buffers).
    ///
    /// # Panics
    ///
    /// Panics when slice lengths differ from the table's bin counts.
    pub fn add_raw(
        &mut self,
        rg: u8,
        cycle_total: &[u64],
        cycle_error: &[u64],
        ctx_total: &[u64],
        ctx_error: &[u64],
    ) {
        let g = rg as usize;
        assert_eq!(cycle_total.len(), self.cycle_total[g].len());
        assert_eq!(ctx_total.len(), self.ctx_total[g].len());
        for (a, b) in self.cycle_total[g].iter_mut().zip(cycle_total) {
            *a += b;
        }
        for (a, b) in self.cycle_error[g].iter_mut().zip(cycle_error) {
            *a += b;
        }
        for (a, b) in self.ctx_total[g].iter_mut().zip(ctx_total) {
            *a += b;
        }
        for (a, b) in self.ctx_error[g].iter_mut().zip(ctx_error) {
            *a += b;
        }
    }

    /// Total observations across all bins (cycle table; every observation
    /// lands in exactly one cycle bin).
    #[must_use]
    pub fn total_observations(&self) -> u64 {
        self.cycle_total.iter().flatten().sum()
    }

    /// Total errors across all bins.
    #[must_use]
    pub fn total_errors(&self) -> u64 {
        self.cycle_error.iter().flatten().sum()
    }

    /// Raw (total, error) counts for one read group's cycle table.
    #[must_use]
    pub fn cycle_counts(&self, rg: u8) -> (&[u64], &[u64]) {
        (&self.cycle_total[rg as usize], &self.cycle_error[rg as usize])
    }

    /// Raw (total, error) counts for one read group's context table.
    #[must_use]
    pub fn context_counts(&self, rg: u8) -> (&[u64], &[u64]) {
        (&self.ctx_total[rg as usize], &self.ctx_error[rg as usize])
    }

    /// Smoothed empirical quality of a (errors, total) pair, in Phred.
    #[must_use]
    pub fn empirical_quality(errors: u64, total: u64) -> f64 {
        let rate = (errors as f64 + 1.0) / (total as f64 + 2.0);
        -10.0 * rate.log10()
    }

    /// Marginal empirical quality for (read group, reported quality):
    /// aggregated over all cycle bins of that quality.
    #[must_use]
    pub fn marginal_quality(&self, rg: u8, q: u8) -> Option<f64> {
        let g = rg as usize;
        let lo = self.cycle_bin(q, 0);
        let hi = self.cycle_bin(q, self.num_cycle_values - 1) + 1;
        let total: u64 = self.cycle_total[g][lo..hi].iter().sum();
        if total == 0 {
            return None;
        }
        let errors: u64 = self.cycle_error[g][lo..hi].iter().sum();
        Some(CovariateTable::empirical_quality(errors, total))
    }

    /// Pseudo-observation weight shrinking sparse per-bin estimates toward
    /// the (read group, quality) marginal, as GATK's hierarchical model
    /// does; without shrinkage a 50-observation bin with zero errors would
    /// report a wildly pessimistic rate.
    const SHRINKAGE_WEIGHT: f64 = 32.0;

    /// Empirical quality of a bin, shrunk toward a prior error rate.
    fn shrunk_quality(errors: u64, total: u64, prior_rate: f64) -> f64 {
        let w = CovariateTable::SHRINKAGE_WEIGHT;
        let rate = (errors as f64 + w * prior_rate) / (total as f64 + w);
        -10.0 * rate.log10()
    }

    /// Recalibrated quality for one base, combining the marginal with the
    /// cycle-bin and context-bin deltas (GATK's additive delta model).
    #[must_use]
    pub fn recalibrated_quality(&self, rg: u8, q: u8, cov: u32, ctx: Option<u8>) -> Qual {
        let g = rg as usize;
        let Some(marginal) = self.marginal_quality(rg, q) else {
            return Qual::saturating(u32::from(q));
        };
        let prior_rate = 10f64.powf(-marginal / 10.0);
        let b1 = self.cycle_bin(q, cov);
        let delta_cycle = if self.cycle_total[g][b1] > 0 {
            CovariateTable::shrunk_quality(
                self.cycle_error[g][b1],
                self.cycle_total[g][b1],
                prior_rate,
            ) - marginal
        } else {
            0.0
        };
        let delta_ctx = match ctx {
            Some(c) => {
                let b2 = CovariateTable::context_bin(q, c);
                if self.ctx_total[g][b2] > 0 {
                    CovariateTable::shrunk_quality(
                        self.ctx_error[g][b2],
                        self.ctx_total[g][b2],
                        prior_rate,
                    ) - marginal
                } else {
                    0.0
                }
            }
            None => 0.0,
        };
        let new_q = (marginal + delta_cycle + delta_ctx).round().clamp(1.0, 60.0);
        Qual::saturating(new_q as u32)
    }
}

/// One observed base yielded by the canonical covariate walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedBase {
    /// Index of the base within `SEQ`.
    pub seq_idx: u32,
    /// Reported quality.
    pub qual: u8,
    /// Cycle covariate value.
    pub cycle_cov: u32,
    /// Context id, when defined.
    pub context: Option<u8>,
    /// Whether the base mismatches the reference (an empirical error).
    pub is_error: bool,
    /// Whether the reference position is a known SNP site (masked).
    pub is_snp: bool,
}

/// Walks a read's aligned bases under the canonical covariate semantics,
/// invoking `f` for each `M` base. Returns `false` when the read is
/// unmapped or out of reference bounds (nothing visited).
pub fn walk_observed_bases<F: FnMut(ObservedBase)>(
    read: &ReadRecord,
    genome: &ReferenceGenome,
    mut f: F,
) -> bool {
    if read.flags.is_unmapped() || read.cigar.is_empty() {
        return false;
    }
    let Some(chrom) = genome.chromosome(read.chr) else {
        return false;
    };
    if read.end_pos() as usize > chrom.len() {
        return false;
    }
    let read_len = read.len();
    let reverse = read.flags.is_reverse();
    let mut ref_pos = read.pos;
    let mut seq_idx = 0u32;
    let mut prev: Option<Base> = None;
    for elem in read.cigar.iter() {
        match elem.op {
            genesis_types::CigarOp::Match
            | genesis_types::CigarOp::SeqMatch
            | genesis_types::CigarOp::SeqMismatch => {
                for _ in 0..elem.len {
                    let cur = read.seq[seq_idx as usize];
                    let rb = chrom.seq[ref_pos as usize];
                    let obs = ObservedBase {
                        seq_idx,
                        qual: read.qual[seq_idx as usize].value(),
                        cycle_cov: cycle_covariate(seq_idx, read_len, reverse),
                        context: prev.and_then(|p| context_id(p, cur)),
                        is_error: cur != rb,
                        is_snp: chrom.is_snp.get(ref_pos as usize),
                    };
                    f(obs);
                    prev = Some(cur);
                    ref_pos += 1;
                    seq_idx += 1;
                }
            }
            genesis_types::CigarOp::Ins => {
                for _ in 0..elem.len {
                    prev = Some(read.seq[seq_idx as usize]);
                    seq_idx += 1;
                }
            }
            genesis_types::CigarOp::SoftClip => {
                // Clipped bases never reach the hardware data path
                // (ReadToBases drops them), so they provide no context.
                seq_idx += elem.len;
                prev = None;
            }
            genesis_types::CigarOp::Del | genesis_types::CigarOp::RefSkip => {
                ref_pos += elem.len;
                prev = None;
            }
            genesis_types::CigarOp::HardClip => {}
        }
    }
    true
}

/// Covariate table construction (the stage the Genesis BQSR accelerator
/// implements, paper Figure 12).
#[must_use]
pub fn build_covariate_table(
    reads: &[ReadRecord],
    genome: &ReferenceGenome,
    read_groups: u8,
    read_len: u32,
) -> CovariateTable {
    let mut table = CovariateTable::new(read_groups, read_len);
    for read in reads {
        if read.flags.is_duplicate() {
            continue;
        }
        let rg = read.read_group;
        walk_observed_bases(read, genome, |obs| {
            if !obs.is_snp {
                table.record(rg, obs.qual, obs.cycle_cov, obs.context, obs.is_error);
            }
        });
    }
    table
}

/// A precomputed recalibration model: per-bin deltas materialized once so
/// the quality update streams at a table lookup per base (GATK likewise
/// materializes its recalibration report before applying it).
#[derive(Debug, Clone)]
pub struct RecalibrationModel {
    num_cycle_values: u32,
    /// `marginal[rg][q]`, NaN when unobserved.
    marginal: Vec<Vec<f64>>,
    /// `delta_cycle[rg][q * num_cycle_values + cov]`.
    delta_cycle: Vec<Vec<f64>>,
    /// `delta_ctx[rg][q * 16 + ctx]`.
    delta_ctx: Vec<Vec<f64>>,
}

impl RecalibrationModel {
    /// Materializes the model from a covariate table.
    #[must_use]
    pub fn from_table(table: &CovariateTable) -> RecalibrationModel {
        let groups = table.read_groups as usize;
        let cycle_bins = (NUM_QUALS * table.num_cycle_values) as usize;
        let ctx_bins = (NUM_QUALS * NUM_CONTEXTS) as usize;
        let mut marginal = vec![vec![f64::NAN; NUM_QUALS as usize]; groups];
        let mut delta_cycle = vec![vec![0.0; cycle_bins]; groups];
        let mut delta_ctx = vec![vec![0.0; ctx_bins]; groups];
        for g in 0..groups {
            let rg = g as u8;
            for q in 0..NUM_QUALS as u8 {
                let Some(m) = table.marginal_quality(rg, q) else { continue };
                marginal[g][q as usize] = m;
                let prior_rate = 10f64.powf(-m / 10.0);
                for cov in 0..table.num_cycle_values {
                    let b1 = table.cycle_bin(q, cov);
                    if table.cycle_total[g][b1] > 0 {
                        delta_cycle[g][b1] = CovariateTable::shrunk_quality(
                            table.cycle_error[g][b1],
                            table.cycle_total[g][b1],
                            prior_rate,
                        ) - m;
                    }
                }
                for ctx in 0..NUM_CONTEXTS as u8 {
                    let b2 = CovariateTable::context_bin(q, ctx);
                    if table.ctx_total[g][b2] > 0 {
                        delta_ctx[g][b2] = CovariateTable::shrunk_quality(
                            table.ctx_error[g][b2],
                            table.ctx_total[g][b2],
                            prior_rate,
                        ) - m;
                    }
                }
            }
        }
        RecalibrationModel {
            num_cycle_values: table.num_cycle_values,
            marginal,
            delta_cycle,
            delta_ctx,
        }
    }

    /// Recalibrated quality for one base (identical to
    /// [`CovariateTable::recalibrated_quality`], via the precomputed bins).
    #[must_use]
    pub fn recalibrated_quality(&self, rg: u8, q: u8, cov: u32, ctx: Option<u8>) -> Qual {
        let g = rg as usize;
        let Some(&m) = self.marginal.get(g).and_then(|v| v.get(q as usize)) else {
            return Qual::saturating(u32::from(q));
        };
        if m.is_nan() {
            return Qual::saturating(u32::from(q));
        }
        let b1 = (u32::from(q) * self.num_cycle_values + cov) as usize;
        let d1 = self.delta_cycle[g][b1];
        let d2 = ctx.map_or(0.0, |c| {
            self.delta_ctx[g][(u32::from(q) * NUM_CONTEXTS + u32::from(c)) as usize]
        });
        let new_q = (m + d1 + d2).round().clamp(1.0, 60.0);
        Qual::saturating(new_q as u32)
    }
}

/// Outcome of the quality update stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecalReport {
    /// Bases whose quality changed.
    pub bases_changed: u64,
    /// Bases visited.
    pub bases_visited: u64,
    /// Mean signed quality delta (recalibrated − reported), in Phred.
    pub mean_delta: f64,
}

/// The quality score update stage: adjusts each observed base's quality
/// from the covariate table (performed in software by GATK after the
/// accelerated table construction, paper §IV-D).
#[must_use]
pub fn apply_recalibration(
    reads: &mut [ReadRecord],
    genome: &ReferenceGenome,
    table: &CovariateTable,
) -> RecalReport {
    let model = RecalibrationModel::from_table(table);
    let mut report = RecalReport::default();
    let mut delta_sum = 0i64;
    let mut updates: Vec<(u32, Qual)> = Vec::new();
    for read in reads.iter_mut() {
        let rg = read.read_group;
        updates.clear();
        walk_observed_bases(read, genome, |obs| {
            let new_q = model.recalibrated_quality(rg, obs.qual, obs.cycle_cov, obs.context);
            updates.push((obs.seq_idx, new_q));
        });
        for &(idx, new_q) in &updates {
            let old = read.qual[idx as usize];
            report.bases_visited += 1;
            if new_q != old {
                report.bases_changed += 1;
                delta_sum += i64::from(new_q.value()) - i64::from(old.value());
            }
            read.qual[idx as usize] = new_q;
        }
    }
    if report.bases_visited > 0 {
        report.mean_delta = delta_sum as f64 / report.bases_visited as f64;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis_datagen::{DatagenConfig, Dataset};
    use genesis_types::{Chrom, Chromosome, ReadFlags};

    fn simple_genome(seq: &str) -> ReferenceGenome {
        [Chromosome::without_snps(Chrom::new(1), Base::seq_from_str(seq).unwrap())]
            .into_iter()
            .collect()
    }

    fn read_with(seq: &str, cigar: &str, pos: u32, q: u8) -> ReadRecord {
        let s = Base::seq_from_str(seq).unwrap();
        let n = s.len();
        ReadRecord::builder("t", Chrom::new(1), pos)
            .cigar(cigar.parse().unwrap())
            .seq(s)
            .qual(vec![Qual::new(q).unwrap(); n])
            .build()
            .unwrap()
    }

    #[test]
    fn walk_yields_only_m_bases() {
        let genome = simple_genome("ACGTACGTACGT");
        let read = read_with("CCACGTA", "2S3M1I1M", 2, 30);
        let mut seen = Vec::new();
        walk_observed_bases(&read, &genome, |o| seen.push(o));
        assert_eq!(seen.len(), 4); // 3M + 1M
        assert_eq!(seen[0].seq_idx, 2);
        // Clipped bases provide no context (they never reach the hardware).
        assert!(seen[0].context.is_none());
        assert!(seen[1].context.is_some());
    }

    #[test]
    fn context_resets_after_deletion() {
        let genome = simple_genome("ACGTACGTACGT");
        let read = read_with("ACGTAC", "3M2D3M", 0, 30);
        let mut seen = Vec::new();
        walk_observed_bases(&read, &genome, |o| seen.push(o));
        assert_eq!(seen.len(), 6);
        assert!(seen[0].context.is_none(), "first base has no context");
        assert!(seen[3].context.is_none(), "base after deletion has no context");
        assert!(seen[1].context.is_some());
    }

    #[test]
    fn errors_detected_and_snp_masked() {
        let mut genome = simple_genome("AAAAAAAAAA");
        // Mark position 3 as a known SNP site.
        if let Some(c) = genome.chromosome(Chrom::new(1)) {
            let mut c = c.clone();
            c.is_snp.set(3, true);
            genome = [c].into_iter().collect();
        }
        let read = read_with("AACA", "4M", 1, 25); // mismatch at ref pos 3
        let table = build_covariate_table(&[read], &genome, 1, 4);
        // The mismatching base sits on the SNP site: masked entirely.
        assert_eq!(table.total_observations(), 3);
        assert_eq!(table.total_errors(), 0);
    }

    #[test]
    fn duplicates_excluded_from_table() {
        let genome = simple_genome("ACGTACGTACGT");
        let mut dup = read_with("ACGT", "4M", 0, 30);
        dup.flags.insert(ReadFlags::DUPLICATE);
        let table = build_covariate_table(&[dup], &genome, 1, 4);
        assert_eq!(table.total_observations(), 0);
    }

    #[test]
    fn bin_ids_match_paper_formulas() {
        let t = CovariateTable::new(1, 151);
        assert_eq!(t.num_cycle_values(), 302);
        assert_eq!(t.cycle_bin(30, 7), 30 * 302 + 7);
        assert_eq!(CovariateTable::context_bin(30, 5), 30 * 16 + 5);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CovariateTable::new(1, 4);
        let mut b = CovariateTable::new(1, 4);
        a.record(0, 30, 1, Some(2), false);
        b.record(0, 30, 1, Some(2), true);
        a.merge(&b);
        assert_eq!(a.total_observations(), 2);
        assert_eq!(a.total_errors(), 1);
    }

    #[test]
    fn empirical_quality_is_phred_like() {
        // 1 error in 99 observations ≈ 2/101 smoothed ≈ Q17.
        let q = CovariateTable::empirical_quality(1, 99);
        assert!((q - 17.03).abs() < 0.1, "{q}");
    }

    #[test]
    fn recalibration_tracks_injected_bias() {
        // Generate biased data; BQSR should push read-group 3 (bias -4
        // Phred) lower than read-group 0 (no group bias).
        let cfg = DatagenConfig {
            num_reads: 4000,
            chrom_len: 80_000,
            num_chromosomes: 1,
            ..DatagenConfig::tiny()
        };
        let mut dataset = Dataset::generate(&cfg);
        let table = build_covariate_table(
            &dataset.reads,
            &dataset.genome,
            cfg.read_groups,
            cfg.read_len,
        );
        assert!(table.total_observations() > 100_000);
        assert!(table.total_errors() > 100);

        let reported_mean = |reads: &[ReadRecord], rg: u8| {
            let mut sum = 0u64;
            let mut n = 0u64;
            for r in reads.iter().filter(|r| r.read_group == rg) {
                for q in &r.qual {
                    sum += u64::from(q.value());
                    n += 1;
                }
            }
            sum as f64 / n as f64
        };
        let before_g0 = reported_mean(&dataset.reads, 0);
        let before_g3 = reported_mean(&dataset.reads, 3);
        let _ = apply_recalibration(&mut dataset.reads, &dataset.genome, &table);
        let after_g0 = reported_mean(&dataset.reads, 0);
        let after_g3 = reported_mean(&dataset.reads, 3);
        // Reported qualities were generated identically across groups...
        assert!((before_g0 - before_g3).abs() < 0.5);
        // ...but group 3's actual error rate is ~4 Phred worse: after
        // recalibration its scores must sit clearly below group 0's.
        assert!(
            after_g0 - after_g3 > 1.5,
            "recalibration failed to separate biased lanes: g0 {after_g0:.2} g3 {after_g3:.2}"
        );
    }

    #[test]
    fn recalibration_without_observations_keeps_quality() {
        let t = CovariateTable::new(1, 4);
        assert_eq!(t.recalibrated_quality(0, 37, 2, None).value(), 37);
        let m = RecalibrationModel::from_table(&t);
        assert_eq!(m.recalibrated_quality(0, 37, 2, None).value(), 37);
    }

    #[test]
    fn precomputed_model_matches_direct_computation() {
        let cfg = DatagenConfig::tiny();
        let dataset = Dataset::generate(&cfg);
        let table = build_covariate_table(
            &dataset.reads,
            &dataset.genome,
            cfg.read_groups,
            cfg.read_len,
        );
        let model = RecalibrationModel::from_table(&table);
        for rg in 0..cfg.read_groups {
            for q in [20u8, 28, 30, 34] {
                for cov in [0u32, 7, 50, 2 * cfg.read_len - 1] {
                    for ctx in [None, Some(0u8), Some(5), Some(15)] {
                        assert_eq!(
                            model.recalibrated_quality(rg, q, cov, ctx),
                            table.recalibrated_quality(rg, q, cov, ctx),
                            "rg {rg} q {q} cov {cov} ctx {ctx:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Multi-threaded [`build_covariate_table`]: each scoped thread bins a
/// contiguous chunk of reads into its own table; the tables merge (count
/// tables are associative and commutative, so the result is identical to
/// the serial build).
#[must_use]
pub fn build_covariate_table_parallel(
    reads: &[ReadRecord],
    genome: &ReferenceGenome,
    read_groups: u8,
    read_len: u32,
    threads: usize,
) -> CovariateTable {
    let threads = threads.max(1).min(reads.len().max(1));
    // At least 1: `chunks(0)` panics, and an empty slice has no chunks anyway.
    let chunk_len = reads.len().div_ceil(threads).max(1);
    let tables = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in reads.chunks(chunk_len) {
            handles.push(scope.spawn(move || {
                build_covariate_table(chunk, genome, read_groups, read_len)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("bqsr worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut total = CovariateTable::new(read_groups, read_len);
    for t in &tables {
        total.merge(t);
    }
    total
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use genesis_datagen::{DatagenConfig, Dataset};

    #[test]
    fn parallel_table_equals_serial() {
        let cfg = DatagenConfig::tiny();
        let dataset = Dataset::generate(&cfg);
        let serial =
            build_covariate_table(&dataset.reads, &dataset.genome, cfg.read_groups, cfg.read_len);
        let parallel = build_covariate_table_parallel(
            &dataset.reads,
            &dataset.genome,
            cfg.read_groups,
            cfg.read_len,
            4,
        );
        assert_eq!(serial, parallel);
    }
}
