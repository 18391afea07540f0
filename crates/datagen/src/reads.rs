//! Read simulation: aligned reads with errors, indels, clips, duplicates.

use crate::config::DatagenConfig;
use crate::quality::QualityBiasModel;
use crate::reference::{alt_allele, generate_reference};
use genesis_types::read::machine_cycle;
use genesis_types::read::MateInfo;
use genesis_types::{
    Base, Chrom, Cigar, CigarElem, CigarOp, Qual, ReadFlags, ReadRecord, ReferenceGenome,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Ground truth about one generated read, for test oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadTruth {
    /// Template (DNA fragment) this read was sequenced from. Reads sharing
    /// a template are PCR duplicates of each other.
    pub template_id: u32,
    /// True leftmost aligned position.
    pub pos: u32,
    /// True chromosome.
    pub chrom: Chrom,
    /// True if this read is an extra PCR copy (not the template's first read).
    pub is_pcr_copy: bool,
}

/// A complete synthetic data set: reference + reads + ground truth.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The reference genome with `IS_SNP` annotations.
    pub genome: ReferenceGenome,
    /// Generated reads, shuffled into arbitrary order (as delivered by an
    /// aligner before coordinate sorting).
    pub reads: Vec<ReadRecord>,
    /// Ground truth parallel to `reads`.
    pub truth: Vec<ReadTruth>,
    /// The configuration that produced the data.
    pub config: DatagenConfig,
    /// The bias model used for quality generation.
    pub bias: QualityBiasModel,
}

impl Dataset {
    /// Generates the full data set deterministically from `cfg`.
    #[must_use]
    pub fn generate(cfg: &DatagenConfig) -> Dataset {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let genome = generate_reference(cfg, &mut rng);
        let bias = QualityBiasModel::standard(cfg.read_groups);
        let mut reads = Vec::with_capacity(cfg.num_reads);
        let mut truth = Vec::with_capacity(cfg.num_reads);

        let mut template_id = 0u32;
        while reads.len() < cfg.num_reads {
            let copies = if rng.gen_bool(cfg.duplicate_rate) {
                1 + rng.gen_range(1..=cfg.max_duplicates as usize)
            } else {
                1
            };
            if cfg.paired {
                let (t1, t2) = Template::sample_pair(cfg, &genome, &mut rng);
                for copy in 0..copies {
                    if reads.len() >= cfg.num_reads {
                        break;
                    }
                    let mut r1 =
                        t1.sequence_copy(cfg, &genome, &bias, template_id, copy, &mut rng);
                    let mut r2 =
                        t2.sequence_copy(cfg, &genome, &bias, template_id, copy, &mut rng);
                    pair_up(&mut r1, &mut r2, &t1, &t2);
                    for (read, template) in [(r1, &t1), (r2, &t2)] {
                        truth.push(ReadTruth {
                            template_id,
                            pos: template.pos,
                            chrom: template.chrom,
                            is_pcr_copy: copy > 0,
                        });
                        reads.push(read);
                    }
                }
            } else {
                let template = Template::sample(cfg, &genome, &mut rng);
                for copy in 0..copies {
                    if reads.len() >= cfg.num_reads {
                        break;
                    }
                    let read =
                        template.sequence_copy(cfg, &genome, &bias, template_id, copy, &mut rng);
                    truth.push(ReadTruth {
                        template_id,
                        pos: template.pos,
                        chrom: template.chrom,
                        is_pcr_copy: copy > 0,
                    });
                    reads.push(read);
                }
            }
            template_id += 1;
        }

        // Shuffle reads (and truth in lockstep) to model unsorted aligner
        // output; the Mark Duplicates stage re-sorts by coordinate.
        let mut order: Vec<usize> = (0..reads.len()).collect();
        order.shuffle(&mut rng);
        let reads = order.iter().map(|&i| reads[i].clone()).collect();
        let truth = order.iter().map(|&i| truth[i].clone()).collect();

        Dataset { genome, reads, truth, config: cfg.clone(), bias }
    }
}

/// One sampled DNA fragment: the alignment structure shared by all its PCR
/// copies.
#[derive(Debug)]
struct Template {
    chrom: Chrom,
    pos: u32,
    reverse: bool,
    read_group: u8,
    cigar: Cigar,
}

impl Template {
    /// Samples a fragment position and alignment structure.
    fn sample(cfg: &DatagenConfig, genome: &ReferenceGenome, rng: &mut StdRng) -> Template {
        let chrom_ord = rng.gen_range(0..cfg.num_chromosomes);
        let chrom = Chrom::new(chrom_ord + 1);
        let reverse = rng.gen_bool(cfg.reverse_rate);
        let read_group = rng.gen_range(0..cfg.read_groups);
        let cigar = Template::sample_structure(cfg, rng);
        let ref_span = cigar.ref_len();
        let max_pos = cfg.chrom_len - ref_span - 1;
        let pos = rng.gen_range(0..=max_pos);
        debug_assert!(genome.chromosome(chrom).is_some());
        Template { chrom, pos, reverse, read_group, cigar }
    }

    /// Samples an FR-oriented mate pair on one fragment: the forward mate
    /// at the fragment's 5' end, the reverse mate ending at its 3' end
    /// (paper footnote 1's paired-end setting).
    fn sample_pair(
        cfg: &DatagenConfig,
        genome: &ReferenceGenome,
        rng: &mut StdRng,
    ) -> (Template, Template) {
        let chrom_ord = rng.gen_range(0..cfg.num_chromosomes);
        let chrom = Chrom::new(chrom_ord + 1);
        let read_group = rng.gen_range(0..cfg.read_groups);
        let cigar1 = Template::sample_structure(cfg, rng);
        let cigar2 = Template::sample_structure(cfg, rng);
        let lo = cfg.fragment_len_mean.saturating_sub(cfg.fragment_len_spread);
        let hi = cfg.fragment_len_mean + cfg.fragment_len_spread;
        let frag = rng
            .gen_range(lo..=hi)
            .max(cigar1.ref_len())
            .max(cigar2.ref_len())
            .min(cfg.chrom_len - 2);
        let max_pos1 = cfg.chrom_len - frag - 1;
        let pos1 = rng.gen_range(0..=max_pos1);
        let pos2 = pos1 + frag - cigar2.ref_len();
        debug_assert!(genome.chromosome(chrom).is_some());
        (
            Template { chrom, pos: pos1, reverse: false, read_group, cigar: cigar1 },
            Template { chrom, pos: pos2, reverse: true, read_group, cigar: cigar2 },
        )
    }

    /// The unclipped 5' key position of this template (§IV-B).
    fn five_prime(&self) -> u32 {
        if self.reverse {
            self.cigar.unclipped_end(self.pos)
        } else {
            self.cigar.unclipped_start(self.pos)
        }
    }

    /// Samples the per-read alignment structure (clips and indels).
    fn sample_structure(cfg: &DatagenConfig, rng: &mut StdRng) -> Cigar {
        let lead_clip =
            if rng.gen_bool(cfg.soft_clip_rate) { rng.gen_range(1..=10u32) } else { 0 };
        let trail_clip =
            if rng.gen_bool(cfg.soft_clip_rate) { rng.gen_range(1..=10u32) } else { 0 };
        let aligned_read_bases = cfg.read_len - lead_clip - trail_clip;

        // At most one insertion and one deletion per read, not at the edges.
        let ins = if aligned_read_bases > 20 && rng.gen_bool(cfg.insertion_rate) {
            let len = rng.gen_range(1..=3u32);
            let at = rng.gen_range(2..aligned_read_bases - len - 2);
            Some((at, len))
        } else {
            None
        };
        let ins_len = ins.map_or(0, |(_, l)| l);
        let m_total = aligned_read_bases - ins_len;
        let del = if m_total > 20 && rng.gen_bool(cfg.deletion_rate) {
            let len = rng.gen_range(1..=3u32);
            // Offset within the matched portion, away from the insertion.
            let at = rng.gen_range(2..m_total - 2);
            if let Some((ins_at, _)) = ins {
                if at.abs_diff(ins_at) < 4 {
                    None
                } else {
                    Some((at, len))
                }
            } else {
                Some((at, len))
            }
        } else {
            None
        };
        let del_len = del.map_or(0, |(_, l)| l);

        let cigar = build_cigar(lead_clip, trail_clip, m_total, ins, del);
        debug_assert_eq!(cigar.read_len(), cfg.read_len);
        debug_assert_eq!(cigar.ref_len(), m_total + del_len);
        cigar
    }

    /// Produces one sequenced copy of this template: fresh sequencing
    /// errors and quality noise, same alignment structure.
    fn sequence_copy(
        &self,
        cfg: &DatagenConfig,
        genome: &ReferenceGenome,
        bias: &QualityBiasModel,
        template_id: u32,
        copy: usize,
        rng: &mut StdRng,
    ) -> ReadRecord {
        let chrom = genome.chromosome(self.chrom).expect("template chromosome exists");
        let mut seq = Vec::with_capacity(cfg.read_len as usize);
        let mut qual = Vec::with_capacity(cfg.read_len as usize);

        // First pass: the "true" bases the machine attempts to read,
        // derived by walking the template CIGAR so sequence and alignment
        // structure can never disagree.
        let mut true_bases = Vec::with_capacity(cfg.read_len as usize);
        let mut ref_pos = self.pos;
        for elem in self.cigar.iter() {
            match elem.op {
                CigarOp::SoftClip | CigarOp::Ins => {
                    for _ in 0..elem.len {
                        true_bases.push(Base::from_code(rng.gen_range(0..4)));
                    }
                }
                CigarOp::Match | CigarOp::SeqMatch | CigarOp::SeqMismatch => {
                    for _ in 0..elem.len {
                        let rb =
                            chrom.base_at(ref_pos).expect("template alignment stays in bounds");
                        let individual = if chrom.is_snp.get(ref_pos as usize)
                            && genotype_is_alt(cfg.seed, self.chrom, ref_pos, cfg.genotype_alt_prob)
                        {
                            alt_allele(rb)
                        } else {
                            rb
                        };
                        true_bases.push(individual);
                        ref_pos += 1;
                    }
                }
                CigarOp::Del | CigarOp::RefSkip => ref_pos += elem.len,
                CigarOp::HardClip => {}
            }
        }
        debug_assert_eq!(true_bases.len(), cfg.read_len as usize);

        // Second pass: reported qualities and machine errors.
        for (i, &tb) in true_bases.iter().enumerate() {
            let idx = i as u32;
            let cycle = machine_cycle(idx, cfg.read_len, self.reverse);
            let reported = reported_quality(cfg, cycle, rng);
            let prev = if i > 0 { true_bases[i - 1] } else { Base::N };
            let p_err = bias.actual_error_probability(
                reported,
                self.read_group,
                cycle,
                cfg.read_len,
                prev,
                tb,
            );
            let observed = if rng.gen_bool(p_err.clamp(0.0, 1.0)) {
                // Substitute with one of the three other bases.
                let mut b = Base::from_code(rng.gen_range(0..4));
                while b == tb {
                    b = Base::from_code(rng.gen_range(0..4));
                }
                b
            } else {
                tb
            };
            seq.push(observed);
            qual.push(reported);
        }

        ReadRecord::builder(&format!("tmpl{template_id}/{copy}"), self.chrom, self.pos)
            .cigar(self.cigar.clone())
            .seq(seq)
            .qual(qual)
            .flags(ReadFlags::empty().with(ReadFlags::REVERSE, self.reverse))
            .read_group(self.read_group)
            .build()
            .expect("generated read is shape-consistent")
    }
}

/// Links two sequenced mates: SAM pair flags and mate info (used by the
/// Mark Duplicates pair key, paper footnote 1).
fn pair_up(r1: &mut ReadRecord, r2: &mut ReadRecord, t1: &Template, t2: &Template) {
    r1.flags.insert(ReadFlags::PAIRED | ReadFlags::PROPER_PAIR | ReadFlags::FIRST_IN_PAIR);
    r2.flags.insert(ReadFlags::PAIRED | ReadFlags::PROPER_PAIR | ReadFlags::SECOND_IN_PAIR);
    if t2.reverse {
        r1.flags.insert(ReadFlags::MATE_REVERSE);
    }
    if t1.reverse {
        r2.flags.insert(ReadFlags::MATE_REVERSE);
    }
    r1.mate = Some(MateInfo {
        chr: t2.chrom,
        pos: t2.pos,
        unclipped_five_prime: t2.five_prime(),
        reverse: t2.reverse,
    });
    r2.mate = Some(MateInfo {
        chr: t1.chrom,
        pos: t1.pos,
        unclipped_five_prime: t1.five_prime(),
        reverse: t1.reverse,
    });
}

/// Builds the template CIGAR from its structural parameters.
fn build_cigar(
    lead_clip: u32,
    trail_clip: u32,
    m_total: u32,
    ins: Option<(u32, u32)>,
    del: Option<(u32, u32)>,
) -> Cigar {
    // Events within the aligned portion, ordered by read offset.
    let mut events: Vec<(u32, CigarOp, u32)> = Vec::new();
    if let Some((at, len)) = ins {
        events.push((at, CigarOp::Ins, len));
    }
    if let Some((at, len)) = del {
        // Deletions are keyed by match-offset; approximate read offset by
        // shifting past an earlier insertion.
        let read_at = match ins {
            Some((ins_at, ins_len)) if ins_at <= at => at + ins_len,
            _ => at,
        };
        events.push((read_at, CigarOp::Del, len));
    }
    events.sort_by_key(|&(at, _, _)| at);

    let mut elems = Vec::new();
    if lead_clip > 0 {
        elems.push(CigarElem::new(lead_clip, CigarOp::SoftClip));
    }
    let mut emitted_m = 0u32;
    let mut cursor = 0u32; // read-offset cursor within aligned portion
    for (at, op, len) in events {
        let m_run = at.saturating_sub(cursor);
        if m_run > 0 {
            elems.push(CigarElem::new(m_run, CigarOp::Match));
            emitted_m += m_run;
        }
        elems.push(CigarElem::new(len, op));
        cursor = at + if op == CigarOp::Ins { len } else { 0 };
        if op == CigarOp::Ins {
            // insertion consumes read bases but not M budget
        }
    }
    let remaining = m_total - emitted_m;
    if remaining > 0 {
        elems.push(CigarElem::new(remaining, CigarOp::Match));
    }
    if trail_clip > 0 {
        elems.push(CigarElem::new(trail_clip, CigarOp::SoftClip));
    }
    elems.into_iter().collect()
}

/// Reported (machine) quality for a cycle: baseline with mild droop at the
/// ends plus per-base noise. This is what the instrument *claims*; the bias
/// model decides what error rate is *actually* realized.
fn reported_quality(cfg: &DatagenConfig, cycle: u32, rng: &mut StdRng) -> Qual {
    let t = if cfg.read_len > 1 {
        2.0 * (f64::from(cycle) / f64::from(cfg.read_len - 1)) - 1.0
    } else {
        0.0
    };
    let droop = -4.0 * t * t;
    let noise = rng.gen_range(-2i32..=2);
    let q = (f64::from(cfg.base_quality) + droop).round() as i32 + noise;
    Qual::saturating(q.clamp(2, 60) as u32)
}

/// Deterministic genotype: whether the individual carries the alternate
/// allele at (`chrom`, `pos`). SplitMix64 over the coordinates keeps every
/// overlapping read (and PCR copy) consistent.
#[must_use]
pub fn genotype_is_alt(seed: u64, chrom: Chrom, pos: u32, prob: f64) -> bool {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(chrom.id()) << 32 | u64::from(pos));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x as f64 / u64::MAX as f64) < prob
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis_types::tags::compute_tags;

    fn tiny() -> Dataset {
        Dataset::generate(&DatagenConfig::tiny())
    }

    #[test]
    fn deterministic_generation() {
        let d1 = tiny();
        let d2 = tiny();
        assert_eq!(d1.reads, d2.reads);
        assert_eq!(d1.truth, d2.truth);
    }

    #[test]
    fn read_shapes_are_consistent() {
        let d = tiny();
        for r in &d.reads {
            assert_eq!(r.len(), d.config.read_len);
            assert_eq!(r.cigar.read_len(), d.config.read_len);
            assert!(r.end_pos() <= d.config.chrom_len);
        }
    }

    #[test]
    fn duplicates_share_template_key() {
        let d = tiny();
        let mut any_dup = false;
        for (r, t) in d.reads.iter().zip(&d.truth) {
            if t.is_pcr_copy {
                any_dup = true;
                // Another read with the same template must exist at the
                // same position.
                let partner = d
                    .truth
                    .iter()
                    .position(|u| u.template_id == t.template_id && !u.is_pcr_copy)
                    .expect("every copy has an original");
                assert_eq!(d.reads[partner].pos, r.pos);
                assert_eq!(d.reads[partner].cigar, r.cigar);
            }
        }
        assert!(any_dup, "tiny config should produce at least one duplicate");
    }

    #[test]
    fn reads_align_with_low_mismatch_rate() {
        let d = tiny();
        let mut mismatches = 0u64;
        let mut aligned = 0u64;
        for r in &d.reads {
            let chrom = d.genome.chromosome(r.chr).unwrap();
            let window = chrom.slice(r.pos, r.end_pos()).unwrap();
            let tags = compute_tags(&r.seq, &r.qual, &r.cigar, window).unwrap();
            mismatches += u64::from(tags.nm);
            aligned += u64::from(r.cigar.ref_len());
        }
        let rate = mismatches as f64 / aligned as f64;
        // Errors + SNP alt alleles + small indels: a few percent at most.
        assert!(rate < 0.05, "mismatch rate {rate} too high");
        assert!(rate > 0.0001, "mismatch rate {rate} suspiciously low");
    }

    #[test]
    fn read_groups_cover_configured_range() {
        let d = tiny();
        let mut seen = vec![false; d.config.read_groups as usize];
        for r in &d.reads {
            seen[r.read_group as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn genotype_hash_is_stable_and_varied() {
        let a = genotype_is_alt(1, Chrom::new(1), 100, 0.5);
        assert_eq!(a, genotype_is_alt(1, Chrom::new(1), 100, 0.5));
        let flips: usize = (0..1000)
            .filter(|&p| genotype_is_alt(1, Chrom::new(1), p, 0.3))
            .count();
        assert!(flips > 150 && flips < 450, "alt fraction {flips}/1000 off target");
    }

    #[test]
    fn strands_are_mixed() {
        let d = tiny();
        let rev = d.reads.iter().filter(|r| r.flags.is_reverse()).count();
        assert!(rev > d.reads.len() / 5 && rev < d.reads.len() * 4 / 5);
    }
}

#[cfg(test)]
mod paired_tests {
    use super::*;
    use genesis_types::ReadFlags;

    fn paired_dataset() -> Dataset {
        Dataset::generate(&DatagenConfig::tiny().with_paired())
    }

    #[test]
    fn mates_share_template_and_fragment() {
        let d = paired_dataset();
        for (r, t) in d.reads.iter().zip(&d.truth) {
            assert!(r.flags.contains(ReadFlags::PAIRED), "{}", r.name);
            let mate = r.mate.as_ref().expect("paired reads carry mate info");
            assert_eq!(mate.chr, t.chrom);
            // FR orientation: exactly one of the mates is reverse.
            assert_ne!(r.flags.is_reverse(), mate.reverse);
        }
    }

    #[test]
    fn fragment_lengths_in_configured_band() {
        let cfg = DatagenConfig::tiny().with_paired();
        let d = Dataset::generate(&cfg);
        for r in d.reads.iter().filter(|r| !r.flags.is_reverse()) {
            let mate = r.mate.as_ref().unwrap();
            // The fragment spans from this read's start to the mate's
            // start plus the mate's reference span; without the mate's
            // CIGAR this is a lower bound on the fragment length.
            let frag_lower = mate.pos - r.pos;
            assert!(frag_lower <= cfg.fragment_len_mean + cfg.fragment_len_spread);
        }
    }

    #[test]
    fn first_and_second_in_pair_flags() {
        let d = paired_dataset();
        let firsts = d.reads.iter().filter(|r| r.flags.contains(ReadFlags::FIRST_IN_PAIR)).count();
        let seconds =
            d.reads.iter().filter(|r| r.flags.contains(ReadFlags::SECOND_IN_PAIR)).count();
        assert_eq!(firsts, seconds);
        assert_eq!(firsts + seconds, d.reads.len());
    }

    #[test]
    fn paired_pipeline_stages_still_agree() {
        // The whole point of the pair key: PCR copies of a pair share both
        // mates' 5' positions and get deduplicated; distinct fragments that
        // happen to share one mate position do not.
        let d = paired_dataset();
        let mut reads = d.reads.clone();
        let report = crate::reads::tests_support::mark_duplicates_for_test(&mut reads);
        assert!(report > 0, "paired data still produces duplicate sets");
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use genesis_types::ReadRecord;

    /// Minimal duplicate counter mirroring the §IV-B key, kept here to
    /// avoid a dev-dependency cycle on `genesis-gatk`.
    pub(crate) fn mark_duplicates_for_test(reads: &mut [ReadRecord]) -> usize {
        use std::collections::HashMap;
        type PairKey = (u8, u32, bool, Option<(u8, u32, bool)>);
        let mut sets: HashMap<PairKey, usize> = HashMap::new();
        for r in reads.iter() {
            let key = (
                r.chr.id(),
                r.unclipped_five_prime(),
                r.flags.is_reverse(),
                r.mate.as_ref().map(|m| (m.chr.id(), m.unclipped_five_prime, m.reverse)),
            );
            *sets.entry(key).or_insert(0) += 1;
        }
        sets.values().filter(|&&n| n > 1).count()
    }
}
