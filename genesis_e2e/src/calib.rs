//! Host-speed calibration: a fixed kernel timed before and after every
//! block of operations, the normalisation that turns raw wall-clock
//! samples into "time on the reference host", a noisy-host guard, and the
//! order statistics the report is built from.

use std::hint::black_box;
use std::time::Instant;

/// Large working set of the kernel: 32 Ki words = 256 KiB, L2-resident.
const L2_WORDS: usize = 32 * 1024;
/// Small working set: 2 Ki words = 16 KiB, L1-resident.
const L1_WORDS: usize = 2 * 1024;
/// Steps per phase of one kernel run; three phases take ≈ 1 ms.
const CAL_STEPS: u32 = 80_000;
/// Kernel runs per calibration (≈ 5 ms). The calibration reads their
/// median: a pre-emption lands in one run and leaves the median alone,
/// while a host that is slower throughout moves every run.
pub const CAL_RUNS: u32 = 5;
/// Nanoseconds one kernel run took on the reference host when this
/// benchmark was committed. NEVER re-tune: every normalised number in
/// every later run is expressed in this host's time.
pub const CAL_REF_NS: f64 = 1_100_000.0;
/// A block whose two calibrations differ by more than this share of their
/// mean saw the host change speed while it ran; it is left out of the
/// timing statistics and counted in `load.blocks_discarded`.
pub const BRACKET_TOLERANCE: f64 = 0.20;
/// With more than this share of a pass's blocks discarded, the run still
/// reports (the driver needs a result) but says loudly that the host was
/// too disturbed for its timings to be compared.
pub const NOISY_SHARE: f64 = 0.5;

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The calibration kernel and its buffer.
pub struct Calibrator {
    buf: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            buf: vec![0; L2_WORDS],
        }
    }

    /// One calibration: `reps × CAL_RUNS` kernel runs, median nanoseconds
    /// per run.
    pub fn measure(&mut self, reps: u32) -> f64 {
        let runs: Vec<f64> = (0..reps.max(1) * CAL_RUNS).map(|_| self.kernel()).collect();
        median(&runs)
    }

    /// One kernel run in nanoseconds: the same step — four independent
    /// splitmix64 streams — three ways: arithmetic only, then each draw a
    /// read-modify-write at a pseudo-random word of 16 KiB, then of 256 KiB.
    ///
    /// The mix is what makes the kernel slow down by the same factor as
    /// the product when a neighbour disturbs the host. Recorded next to
    /// `PipelinePlan::execute` (scan plan and pileup plan alike) on one
    /// thread for four minutes in which the host's speed ranged over
    /// 1.6×, medians per 10 s: against the arithmetic phase alone the
    /// product slowed with exponent 2.5 (19 % scatter raw, 12 % after
    /// dividing by it), against the 256 KiB phase alone with 0.76 (5.8 %
    /// left), against the three phases together with 1.02 (1.5 % left).
    fn kernel(&mut self) -> f64 {
        let start = Instant::now();
        let mut streams = [1u64, 2, 3, 4];
        let mut acc = 0u64;
        for _ in 0..CAL_STEPS {
            for state in &mut streams {
                acc ^= splitmix64(state);
            }
        }
        black_box(acc);
        for words in [L1_WORDS, L2_WORDS] {
            let buf = &mut self.buf[..words];
            for _ in 0..CAL_STEPS {
                for state in &mut streams {
                    let r = splitmix64(state);
                    let slot = &mut buf[(r as usize) & (words - 1)];
                    *slot = slot.wrapping_add(r);
                }
            }
        }
        black_box(&mut self.buf);
        start.elapsed().as_nanos() as f64
    }
}

/// Host speed of every block of a pass, given the calibrations taken
/// between them: block `i` ran between `cal_ns[i]` and `cal_ns[i + 1]`,
/// and its speed is the reference time over the mean of the two.
pub fn block_speeds(cal_ns: &[f64]) -> Vec<f64> {
    cal_ns
        .windows(2)
        .map(|b| CAL_REF_NS / ((b[0] + b[1]) / 2.0))
        .collect()
}

/// Which blocks ran on a host that held its speed: those whose two
/// calibrations agree within [`BRACKET_TOLERANCE`]. The choice looks only
/// at the kernel, never at the block's own timing.
pub fn steady_blocks(cal_ns: &[f64]) -> Vec<bool> {
    cal_ns
        .windows(2)
        .map(|b| (b[0] - b[1]).abs() <= BRACKET_TOLERANCE * (b[0] + b[1]) / 2.0)
        .collect()
}

/// Phases of a set-up, each timed on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Datagen,
    Catalog,
    /// Compiler, server, script registration.
    ServerStart,
    /// The first request: a cold compile plus one run.
    FirstRequest,
    Warmup,
    /// One `metrics_snapshot()`.
    Snapshot,
}

pub const PHASES: usize = 6;

/// Times the phases of one set-up. A calibration is taken at every
/// `checkpoint`, so each phase is normalised by the host speed around it
/// and not by one reading for the whole set-up.
pub struct PhaseClock<'a> {
    cal: &'a mut Calibrator,
    cal_ns: Vec<f64>,
    /// (phase, nanoseconds, index of the bracket it ran in).
    spans: Vec<(Phase, u64, usize)>,
}

impl<'a> PhaseClock<'a> {
    pub fn new(cal: &'a mut Calibrator) -> PhaseClock<'a> {
        let opening = cal.measure(1);
        PhaseClock {
            cal,
            cal_ns: vec![opening],
            spans: Vec::new(),
        }
    }

    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.spans.push((
            phase,
            start.elapsed().as_nanos() as u64,
            self.cal_ns.len() - 1,
        ));
        out
    }

    /// Closes the current bracket; calibration time is in no phase.
    pub fn checkpoint(&mut self) {
        self.cal_ns.push(self.cal.measure(1));
    }

    /// Reference-host nanoseconds per phase, indexed by `Phase as usize`.
    pub fn finish(mut self) -> [f64; PHASES] {
        self.checkpoint();
        phase_ns(&self.cal_ns, &self.spans)
    }
}

fn phase_ns(cal_ns: &[f64], spans: &[(Phase, u64, usize)]) -> [f64; PHASES] {
    let speeds = block_speeds(cal_ns);
    let mut out = [0.0; PHASES];
    for &(phase, ns, bracket) in spans {
        out[phase as usize] += ns as f64 * speeds[bracket];
    }
    out
}

/// Median of a sample (mean of the middle pair when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Interquartile range as a share of the median (0 for fewer than 4 samples).
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = median(&v);
    if m == 0.0 {
        return 0.0;
    }
    (percentile_sorted(&v, 0.75) - percentile_sorted(&v, 0.25)) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speeds_normalise_to_reference_time() {
        // A host running the kernel in twice the reference time is half
        // as fast: a 10 ms raw sample is 5 ms on the reference host.
        let slow = block_speeds(&[2.0 * CAL_REF_NS; 3]);
        assert_eq!(slow.len(), 2);
        assert!((slow[0] - 0.5).abs() < 1e-12);
        assert!((10.0e6 * slow[0] - 5.0e6).abs() < 1e-3);
        // A block's speed is read from the mean of its own two brackets.
        let speeds = block_speeds(&[CAL_REF_NS, 3.0 * CAL_REF_NS, CAL_REF_NS]);
        assert!((speeds[0] - 0.5).abs() < 1e-12 && (speeds[1] - 0.5).abs() < 1e-12);
        assert!(block_speeds(&[CAL_REF_NS]).is_empty());
    }

    #[test]
    fn phase_clock_sums_phases_across_brackets() {
        let mut cal = Calibrator::new();
        let mut clock = PhaseClock::new(&mut cal);
        assert_eq!(clock.time(Phase::Warmup, || 7), 7);
        clock.checkpoint();
        clock.time(Phase::Warmup, || ());
        clock.time(Phase::Datagen, || ());
        assert_eq!(
            (clock.spans.len(), clock.spans[2].2, clock.cal_ns.len()),
            (3, 1, 2)
        );
        assert!(clock.finish()[Phase::Warmup as usize] > 0.0);
        // A host at reference speed in the first bracket, half as fast
        // in the second.
        let ns = phase_ns(
            &[CAL_REF_NS, CAL_REF_NS, 3.0 * CAL_REF_NS],
            &[
                (Phase::Warmup, 100, 0),
                (Phase::Warmup, 50, 1),
                (Phase::Datagen, 6, 1),
            ],
        );
        assert!((ns[Phase::Warmup as usize] - 125.0).abs() < 1e-9);
        assert!((ns[Phase::Datagen as usize] - 3.0).abs() < 1e-9);
        assert_eq!(ns[Phase::Snapshot as usize], 0.0);
    }

    #[test]
    fn guard_leaves_out_blocks_whose_brackets_disagree() {
        // 100 → 125 differs by 22 % of the mean, 100 → 120 by 18 %.
        assert_eq!(
            steady_blocks(&[100.0, 125.0, 125.0, 100.0, 120.0]),
            vec![false, true, false, true]
        );
        assert!(steady_blocks(&[100.0]).is_empty());
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), 50.0);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        // Quartiles 25 and 75 around a median of 50.5.
        assert!((iqr_share(&sorted) - 50.0 / 50.5).abs() < 1e-12);
    }

    #[test]
    fn kernel_is_deterministic_and_takes_time() {
        let mut a = Calibrator::new();
        let mut b = Calibrator::new();
        assert!(a.measure(1) > 0.0);
        b.measure(1);
        assert_eq!(a.buf, b.buf);
        assert!(a.buf.iter().any(|&w| w != 0));
    }
}
