//! Metadata Update — `SetNmMdAndUqTags` (paper §IV-C).

use genesis_types::tags::compute_tags;
use genesis_types::{ReadRecord, ReferenceGenome, TypeError};

/// Outcome of the metadata update stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetadataReport {
    /// Reads whose tags were computed.
    pub updated: usize,
    /// Reads skipped (unmapped or out of reference bounds).
    pub skipped: usize,
    /// Total NM across all reads (used as a cheap cross-check against the
    /// accelerated implementation).
    pub total_nm: u64,
    /// Total UQ across all reads.
    pub total_uq: u64,
}

/// Computes NM, MD and UQ for every mapped read, storing them on the
/// records (the `SetNmMdAndUqTags` stage).
///
/// # Errors
///
/// Returns the underlying [`TypeError`] if a read is internally
/// inconsistent (generator and aligner outputs never are).
pub fn set_nm_md_uq_tags(
    reads: &mut [ReadRecord],
    genome: &ReferenceGenome,
) -> Result<MetadataReport, TypeError> {
    let mut report = MetadataReport::default();
    for read in reads.iter_mut() {
        if read.flags.is_unmapped() || read.cigar.is_empty() {
            report.skipped += 1;
            continue;
        }
        let Some(chrom) = genome.chromosome(read.chr) else {
            report.skipped += 1;
            continue;
        };
        let end = read.end_pos();
        if end as usize > chrom.len() {
            report.skipped += 1;
            continue;
        }
        let window = chrom.slice(read.pos, end)?;
        let tags = compute_tags(&read.seq, &read.qual, &read.cigar, window)?;
        read.nm = Some(tags.nm);
        read.uq = Some(tags.uq);
        report.total_nm += u64::from(tags.nm);
        report.total_uq += u64::from(tags.uq);
        read.md = Some(tags.md.to_string());
        report.updated += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis_types::{Base, Chrom, Chromosome, Qual, ReadFlags};

    fn genome() -> ReferenceGenome {
        [Chromosome::without_snps(
            Chrom::new(1),
            Base::seq_from_str("ACGTAACCAGTA").unwrap(),
        )]
        .into_iter()
        .collect()
    }

    fn paper_read1() -> ReadRecord {
        ReadRecord::builder("r1", Chrom::new(1), 0)
            .cigar("7M1I5M".parse().unwrap())
            .seq(Base::seq_from_str("AGGTAACACGGTA").unwrap())
            .qual(vec![Qual::new(20).unwrap(); 13])
            .build()
            .unwrap()
    }

    #[test]
    fn paper_example_tags() {
        let genome = genome();
        let mut reads = vec![paper_read1()];
        let report = set_nm_md_uq_tags(&mut reads, &genome).unwrap();
        assert_eq!(report.updated, 1);
        assert_eq!(reads[0].md.as_deref(), Some("1C6A3"));
        assert_eq!(reads[0].nm, Some(3));
        assert_eq!(reads[0].uq, Some(40));
    }

    #[test]
    fn unmapped_reads_skipped() {
        let genome = genome();
        let mut read = paper_read1();
        read.flags.insert(ReadFlags::UNMAPPED);
        let mut reads = vec![read];
        let report = set_nm_md_uq_tags(&mut reads, &genome).unwrap();
        assert_eq!(report.updated, 0);
        assert_eq!(report.skipped, 1);
        assert_eq!(reads[0].nm, None);
    }

    #[test]
    fn out_of_bounds_read_skipped() {
        let genome = genome();
        let mut read = paper_read1();
        read.pos = 5; // end would exceed the 12-base chromosome
        let mut reads = vec![read];
        let report = set_nm_md_uq_tags(&mut reads, &genome).unwrap();
        assert_eq!(report.skipped, 1);
    }

    #[test]
    fn totals_accumulate() {
        let genome = genome();
        let mut reads = vec![paper_read1(), paper_read1()];
        let report = set_nm_md_uq_tags(&mut reads, &genome).unwrap();
        assert_eq!(report.total_nm, 6);
        assert_eq!(report.total_uq, 80);
    }
}

/// Multi-threaded [`set_nm_md_uq_tags`]: reads are split into contiguous
/// chunks processed by scoped threads (the paper's baseline runs GATK on
/// an 8-core Xeon; this is the analogous parallel software configuration).
///
/// # Errors
///
/// Propagates the first chunk's [`TypeError`], if any.
pub fn set_nm_md_uq_tags_parallel(
    reads: &mut [ReadRecord],
    genome: &ReferenceGenome,
    threads: usize,
) -> Result<MetadataReport, TypeError> {
    let threads = threads.max(1).min(reads.len().max(1));
    // At least 1: `chunks(0)` panics, and an empty slice has no chunks anyway.
    let chunk_len = reads.len().div_ceil(threads).max(1);
    let results = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in reads.chunks_mut(chunk_len) {
            handles.push(scope.spawn(move || set_nm_md_uq_tags(chunk, genome)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("metadata worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut total = MetadataReport::default();
    for r in results {
        let r = r?;
        total.updated += r.updated;
        total.skipped += r.skipped;
        total.total_nm += r.total_nm;
        total.total_uq += r.total_uq;
    }
    Ok(total)
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use genesis_datagen::{DatagenConfig, Dataset};

    #[test]
    fn parallel_equals_serial() {
        let dataset = Dataset::generate(&DatagenConfig::tiny());
        let mut serial = dataset.reads.clone();
        let r1 = set_nm_md_uq_tags(&mut serial, &dataset.genome).unwrap();
        let mut parallel = dataset.reads.clone();
        let r2 = set_nm_md_uq_tags_parallel(&mut parallel, &dataset.genome, 4).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(r1.updated, r2.updated);
        assert_eq!(r1.total_nm, r2.total_nm);
        assert_eq!(r1.total_uq, r2.total_uq);
    }

    #[test]
    fn degenerate_thread_counts() {
        let dataset = Dataset::generate(&DatagenConfig::tiny());
        let mut a = dataset.reads.clone();
        set_nm_md_uq_tags_parallel(&mut a, &dataset.genome, 0).unwrap();
        let mut b = dataset.reads.clone();
        set_nm_md_uq_tags_parallel(&mut b, &dataset.genome, 1000).unwrap();
        assert_eq!(a, b);
    }
}
