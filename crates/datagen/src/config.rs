//! Generation parameters.

/// Parameters controlling synthetic data generation.
///
/// Defaults follow DESIGN.md §5: a laptop-scale stand-in for the paper's
/// NA12878 / GRCh38 / dbSNP138 evaluation set.
///
/// # Examples
///
/// ```
/// use genesis_datagen::DatagenConfig;
///
/// let cfg = DatagenConfig::default().with_reads(10_000).with_seed(7);
/// assert_eq!(cfg.num_reads, 10_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DatagenConfig {
    /// RNG seed: generation is fully deterministic given the config.
    pub seed: u64,
    /// Number of chromosomes.
    pub num_chromosomes: u8,
    /// Length of each chromosome in base pairs.
    pub chrom_len: u32,
    /// Fraction of reference positions that are known SNP sites
    /// (dbSNP density; paper uses dbSNP138).
    pub snp_density: f64,
    /// Probability that the sequenced individual carries the alternate
    /// allele at a known SNP site.
    pub genotype_alt_prob: f64,
    /// Total number of reads to synthesize (before PCR duplication).
    pub num_reads: usize,
    /// Read length in base pairs (paper: up to 151).
    pub read_len: u32,
    /// Number of read groups / sequencing lanes (BQSR covariate).
    pub read_groups: u8,
    /// Probability that a read spawns PCR duplicates.
    pub duplicate_rate: f64,
    /// Maximum extra copies per duplicate set.
    pub max_duplicates: u8,
    /// Per-read probability of containing a small insertion.
    pub insertion_rate: f64,
    /// Per-read probability of containing a small deletion.
    pub deletion_rate: f64,
    /// Per-read probability of soft-clipped ends.
    pub soft_clip_rate: f64,
    /// Fraction of reads on the reverse strand.
    pub reverse_rate: f64,
    /// Baseline reported Phred quality at the center of a read.
    pub base_quality: u8,
    /// Generate paired-end templates: each template yields a forward and a
    /// reverse-complemented mate (paper footnote 1).
    pub paired: bool,
    /// Mean DNA fragment length for paired-end templates.
    pub fragment_len_mean: u32,
    /// Fragment length spread (uniform ± this value).
    pub fragment_len_spread: u32,
}

impl Default for DatagenConfig {
    fn default() -> DatagenConfig {
        DatagenConfig {
            seed: 0xD6_0D1E,
            num_chromosomes: 4,
            chrom_len: 2_000_000,
            snp_density: 0.001,
            genotype_alt_prob: 0.3,
            num_reads: 200_000,
            read_len: 151,
            read_groups: 4,
            duplicate_rate: 0.15,
            max_duplicates: 3,
            insertion_rate: 0.02,
            deletion_rate: 0.02,
            soft_clip_rate: 0.05,
            reverse_rate: 0.5,
            base_quality: 32,
            paired: false,
            fragment_len_mean: 350,
            fragment_len_spread: 80,
        }
    }
}

impl DatagenConfig {
    /// A tiny configuration for unit tests and doctests: 2 chromosomes of
    /// 20 kbp, 500 reads of 100 bp.
    #[must_use]
    pub fn tiny() -> DatagenConfig {
        DatagenConfig {
            seed: 42,
            num_chromosomes: 2,
            chrom_len: 20_000,
            num_reads: 500,
            read_len: 100,
            ..DatagenConfig::default()
        }
    }

    /// A small configuration for integration tests: 2 chromosomes of
    /// 200 kbp, 5 000 reads.
    #[must_use]
    pub fn small() -> DatagenConfig {
        DatagenConfig {
            seed: 42,
            num_chromosomes: 2,
            chrom_len: 200_000,
            num_reads: 5_000,
            ..DatagenConfig::default()
        }
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> DatagenConfig {
        self.seed = seed;
        self
    }

    /// Sets the read count.
    #[must_use]
    pub fn with_reads(mut self, num_reads: usize) -> DatagenConfig {
        self.num_reads = num_reads;
        self
    }

    /// Sets the per-chromosome length.
    #[must_use]
    pub fn with_chrom_len(mut self, chrom_len: u32) -> DatagenConfig {
        self.chrom_len = chrom_len;
        self
    }

    /// Enables paired-end generation.
    #[must_use]
    pub fn with_paired(mut self) -> DatagenConfig {
        self.paired = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_chain() {
        let cfg = DatagenConfig::tiny().with_seed(1).with_reads(9).with_chrom_len(100);
        assert_eq!(cfg.seed, 1);
        assert_eq!(cfg.num_reads, 9);
        assert_eq!(cfg.chrom_len, 100);
    }

    #[test]
    fn default_is_design_doc_scale() {
        let cfg = DatagenConfig::default();
        assert_eq!(cfg.read_len, 151);
        assert_eq!(cfg.num_chromosomes, 4);
        assert!(cfg.duplicate_rate > 0.0);
    }
}
