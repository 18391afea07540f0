//! Differential tests: the fast (park/wake) engine must be bit-identical
//! to the naive reference engine — same cycle counts, memory traffic, error
//! cycles, and module outputs — for every pipeline. These tests build the
//! same system once per [`EngineMode`] and compare everything observable,
//! including the stall-attribution invariant that each module's five
//! buckets tile the run exactly. Every module is [`Counted`], so every run
//! also checks that no engine ticks a module after its `Tick::Done`.

mod common;

use common::{counted, ticks_after_done, Counted, SlowSink, TickCensus};
use genesis_hw::modules::alu::{AluOp, AluRhs, StreamAlu};
use genesis_hw::modules::filter::{CmpOp, Filter, Predicate};
use genesis_hw::modules::joiner::{JoinKind, Joiner};
use genesis_hw::modules::mem_reader::{MemReader, MemReaderConfig, RowSpec};
use genesis_hw::modules::mem_writer::{MemWriter, MemWriterConfig, WriterColumn};
use genesis_hw::modules::read_to_bases::{ReadToBases, ReadToBasesInputs};
use genesis_hw::modules::reducer::{ReduceOp, Reducer};
use genesis_hw::modules::sink::StreamSink;
use genesis_hw::modules::source::StreamSource;
use genesis_hw::modules::spm_reader::{SpmReadMode, SpmReader};
use genesis_hw::modules::spm_updater::{RmwOp, SpmUpdateMode, SpmUpdater};
use genesis_hw::system::ModuleId;
use genesis_hw::word::{Flit, HwWord};
use genesis_hw::{EngineMode, LatencyFaults, MemoryConfig, SimError, SimStats, System};
use proptest::prelude::*;

/// Everything modeled that one `run` call leaves behind: its outcome, the
/// cycle it stopped at, the aggregate statistics (cycles, memory traffic,
/// flits, refused pushes) and the refused pushes of every queue.
#[derive(Debug, PartialEq)]
struct Exit {
    outcome: Result<SimStats, SimError>,
    cycle: u64,
    stats: SimStats,
    full_stalls: Vec<u64>,
}

/// The statistics both engines must agree on: all but the tick census.
fn engine_free(stats: SimStats) -> SimStats {
    SimStats { module_ticks: 0, ..stats }
}

/// Runs `sys` to `budget` and checks, on whatever exit path it took, that
/// no finished module was ticked, that a completed system has nothing
/// left to run, and the tiling invariant: active + input-starved +
/// backpressured + memory-wait + spill-wait per module is exactly the
/// cycle span.
fn run_to(sys: &mut System, budget: u64) -> Exit {
    let after_done = ticks_after_done();
    let outcome = sys.run(budget);
    if let Ok(stats) = outcome {
        assert_eq!(sys.run(budget), Ok(stats), "a run after completion changes nothing");
    }
    assert_eq!(ticks_after_done(), after_done, "a module was ticked after Tick::Done");
    for m in &sys.stall_report().modules {
        assert_eq!(
            m.counters.total(),
            sys.cycle(),
            "stall buckets of {} must tile the {:?} run",
            m.label,
            sys.engine()
        );
    }
    Exit {
        outcome: outcome.map(engine_free),
        cycle: sys.cycle(),
        stats: engine_free(sys.stats()),
        full_stalls: sys.queues().iter().map(|q| q.total_full_stalls()).collect(),
    }
}

/// Builds the same system under both engines, runs each to `budget`, and
/// asserts that the run outcome (stats or error), the final cycle counter,
/// every queue's refused-push count and the caller-observed state all
/// match exactly. Stall attribution is the one designed difference — the
/// reference engine never parks, so its report is all-active — but under
/// either engine every module's buckets must tile the simulated cycle
/// span. Returns the fast engine's finished system and handles, for
/// checks on what the engines are *meant* to differ in.
fn assert_engines_agree_on<H, E>(
    new_system: impl Fn() -> System,
    budget: u64,
    build: impl Fn(&mut System) -> H,
    observe: impl Fn(&System, &H) -> E,
) -> (System, H)
where
    E: PartialEq + std::fmt::Debug,
{
    let run = |mode: EngineMode| {
        let mut sys = new_system();
        let handles = build(&mut sys);
        sys.set_engine(mode);
        let exit = run_to(&mut sys, budget);
        let observed = observe(&sys, &handles);
        (exit, observed, sys, handles)
    };
    let reference = run(EngineMode::Reference);
    let fast = run(EngineMode::Fast);
    assert_eq!(
        (&reference.0, &reference.1),
        (&fast.0, &fast.1),
        "fast engine diverged from the reference engine"
    );
    for m in &reference.2.stall_report().modules {
        assert_eq!(m.counters.active, reference.0.cycle, "reference engine never parks {}", m.label);
    }
    (fast.2, fast.3)
}

fn assert_engines_agree<H, E>(
    budget: u64,
    build: impl Fn(&mut System) -> H,
    observe: impl Fn(&System, &H) -> E,
) where
    E: PartialEq + std::fmt::Debug,
{
    assert_engines_agree_on(System::new, budget, build, observe);
}

fn sink_flits(sys: &System, id: ModuleId) -> Vec<Flit> {
    sys.module_as::<Counted<StreamSink>>(id)
        .expect("module is a counted StreamSink")
        .inner()
        .flits()
        .to_vec()
}

fn slow_sink_flits(sys: &System, id: ModuleId) -> Vec<Flit> {
    sys.module_as::<Counted<SlowSink>>(id)
        .expect("module is a counted SlowSink")
        .inner()
        .flits()
        .to_vec()
}

fn reduce_op(tag: u32) -> ReduceOp {
    match tag % 4 {
        0 => ReduceOp::Sum,
        1 => ReduceOp::Count,
        2 => ReduceOp::Min,
        _ => ReduceOp::Max,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// source -> filter -> reducer -> sink with randomized items, queue
    /// capacities and a sink popping every `period`-th cycle (so every
    /// module upstream spends most of the run refused: the `Watch::Full`
    /// parks and their closed-form credit), predicate threshold, and
    /// reduction op.
    #[test]
    fn filter_reduce_chain_bit_identical(
        items in proptest::collection::vec(
            proptest::collection::vec(0u64..50, 0..8),
            1..6,
        ),
        threshold in 0u64..50,
        cap in 1usize..=3,
        period in 1u64..6,
        op_tag in 0u32..4,
    ) {
        assert_engines_agree(
            50_000,
            |sys| {
                let q_src = sys.add_queue_with_capacity("src", cap);
                let q_flt = sys.add_queue_with_capacity("flt", cap);
                let q_out = sys.add_queue_with_capacity("out", cap);
                sys.add_module(counted(StreamSource::from_items("src", q_src, &items)));
                sys.add_module(counted(Filter::new(
                    "flt",
                    Predicate::field_const(0, CmpOp::Gt, threshold),
                    q_src,
                    q_flt,
                )));
                sys.add_module(counted(Reducer::new("red", reduce_op(op_tag), 0, q_flt, q_out)));
                sys.add_module(counted(SlowSink::new("sink", q_out, period)))
            },
            |sys, &sink| slow_sink_flits(sys, sink),
        );
    }

    /// Two sorted sources -> joiner -> filter -> reducer -> sink. Join kind,
    /// key gaps, payloads, and queue capacity are all randomized; left/outer
    /// joins put `Del` sentinels in the filtered field.
    #[test]
    fn join_pipeline_bit_identical(
        left in proptest::collection::vec((1u64..4, 0u64..100), 0..8),
        right in proptest::collection::vec((1u64..4, 0u64..100), 0..8),
        kind_tag in 0u32..3,
        cap in 1usize..=3,
        period in 1u64..6,
        threshold in 0u64..100,
    ) {
        // Strictly ascending keys from the random gaps.
        let rows = |gaps: &[(u64, u64)]| {
            let mut key = 0u64;
            let mut out = Vec::new();
            for &(gap, val) in gaps {
                key += gap;
                out.push(vec![HwWord::Val(key), HwWord::Val(val)]);
            }
            out
        };
        let (left_rows, right_rows) = (rows(&left), rows(&right));
        let kind = match kind_tag {
            0 => JoinKind::Inner,
            1 => JoinKind::Left,
            _ => JoinKind::Outer,
        };
        assert_engines_agree(
            50_000,
            |sys| {
                let q_l = sys.add_queue_with_capacity("l", cap);
                let q_r = sys.add_queue_with_capacity("r", cap);
                let q_j = sys.add_queue_with_capacity("j", cap);
                let q_f = sys.add_queue_with_capacity("f", cap);
                let q_o = sys.add_queue_with_capacity("o", cap);
                sys.add_module(counted(StreamSource::from_field_items(
                    "l",
                    q_l,
                    std::slice::from_ref(&left_rows),
                )));
                sys.add_module(counted(StreamSource::from_field_items(
                    "r",
                    q_r,
                    std::slice::from_ref(&right_rows),
                )));
                sys.add_module(counted(Joiner::new("join", kind, q_l, q_r, q_j, 1, 1)));
                sys.add_module(counted(Filter::new(
                    "flt",
                    Predicate::field_const(2, CmpOp::Gt, threshold),
                    q_j,
                    q_f,
                )));
                sys.add_module(counted(Reducer::new("red", ReduceOp::Sum, 1, q_f, q_o)));
                sys.add_module(counted(SlowSink::new("sink", q_o, period)))
            },
            |sys, &sink| slow_sink_flits(sys, sink),
        );
    }

    /// source -> RMW updater (cascading) -> slow sink over a handful of
    /// addresses: RAW hazards (which keep the updater ticking) interleave
    /// with refused cascade pushes (which park it), in both orders.
    #[test]
    fn rmw_cascade_under_backpressure_bit_identical(
        addrs in proptest::collection::vec(0u64..3, 1..40),
        cap in 1usize..=3,
        period in 1u64..6,
    ) {
        let rows: Vec<Vec<HwWord>> =
            addrs.iter().enumerate().map(|(i, &a)| vec![HwWord::Val(a), HwWord::Val(i as u64)]).collect();
        assert_engines_agree(
            100_000,
            |sys| {
                let spm = sys.add_spm("counts", 4, 8);
                let q_in = sys.add_queue_with_capacity("in", cap);
                let q_fwd = sys.add_queue_with_capacity("fwd", cap);
                sys.add_module(counted(StreamSource::from_field_items(
                    "src",
                    q_in,
                    std::slice::from_ref(&rows),
                )));
                sys.add_module(counted(
                    SpmUpdater::new("rmw", spm, SpmUpdateMode::Rmw { op: RmwOp::Add }, 0, 1, q_in)
                        .with_forward(q_fwd),
                ));
                let sink = sys.add_module(counted(SlowSink::new("sink", q_fwd, period)));
                (spm, sink)
            },
            |sys, &(spm, sink)| {
                (sys.spms().get(spm).contents().to_vec(), slow_sink_flits(sys, sink))
            },
        );
    }
}

/// MemReader -> Reducer -> MemWriter: exercises memory-latency timed wakes
/// (`wake_at`), arbitration stalls, and line flush/park interleavings; the
/// written-back bytes must match byte for byte.
#[test]
fn memory_pipeline_bit_identical() {
    const ELEMS: u64 = 256;
    const ROW: u64 = 8;
    let input: Vec<u8> = (0..ELEMS)
        .flat_map(|i| u32::try_from(i * 3 % 251).unwrap().to_le_bytes())
        .collect();
    assert_engines_agree(
        1_000_000,
        |sys| {
            let in_base = sys.alloc_mem(input.len());
            let out_base = sys.alloc_mem((ELEMS / ROW) as usize * 8);
            sys.host_write(in_base, &input);
            let rd_port = sys.register_mem_port(0);
            let wr_port = sys.register_mem_port(0);
            let q_rd = sys.add_queue_with_capacity("rd", 4);
            let q_sum = sys.add_queue_with_capacity("sum", 4);
            sys.add_module(counted(MemReader::new(
                "rd",
                MemReaderConfig {
                    base_addr: in_base,
                    elem_bytes: 4,
                    total_elems: ELEMS,
                    rows: RowSpec::Fixed(ROW),
                },
                rd_port,
                q_rd,
            )));
            sys.add_module(counted(Reducer::new("sum", ReduceOp::Sum, 0, q_rd, q_sum)));
            sys.add_module(counted(MemWriter::new(
                "wr",
                MemWriterConfig { base_addr: out_base, elem_bytes: 8 },
                wr_port,
                q_sum,
            )));
            out_base
        },
        |sys, &out_base| sys.host_read(out_base, (ELEMS / ROW) as usize * 8),
    );
}

/// Source -> RMW SpmUpdater (with forward) -> sink: exercises the 3-stage
/// RAW interlock (hazard stalls must be re-counted every naive cycle) and
/// the deferred-retire park path; final scratchpad contents must match.
#[test]
fn spm_rmw_pipeline_bit_identical() {
    // Clustered addresses provoke RAW hazards in the 3-deep RMW pipeline.
    let rows: Vec<Vec<HwWord>> = (0..64u64)
        .map(|i| vec![HwWord::Val(i % 5), HwWord::Val(i)])
        .collect();
    assert_engines_agree(
        100_000,
        |sys| {
            let spm = sys.add_spm("counts", 8, 8);
            let q_in = sys.add_queue_with_capacity("in", 2);
            let q_fwd = sys.add_queue_with_capacity("fwd", 2);
            sys.add_module(counted(StreamSource::from_field_items(
                "src",
                q_in,
                std::slice::from_ref(&rows),
            )));
            sys.add_module(counted(
                SpmUpdater::new(
                    "rmw",
                    spm,
                    SpmUpdateMode::Rmw { op: RmwOp::Add },
                    0,
                    1,
                    q_in,
                )
                .with_forward(q_fwd),
            ));
            let sink = sys.add_module(counted(StreamSink::new("sink", q_fwd)));
            (spm, sink)
        },
        |sys, &(spm, sink)| {
            (sys.spms().get(spm).contents().to_vec(), sink_flits(sys, sink))
        },
    );
}

/// Several fully independent chains in one system (no shared queues, no
/// memory modules): wakes in one chain must never disturb another.
#[test]
fn independent_chains_bit_identical() {
    assert_engines_agree(
        200_000,
        |sys| {
            let mut sinks = Vec::new();
            for p in 0..6u64 {
                let q_src = sys.add_queue_with_capacity(&format!("src{p}"), 2 + p as usize);
                let q_out = sys.add_queue_with_capacity(&format!("out{p}"), 2);
                let items: Vec<Vec<u64>> =
                    (0..40).map(|i| vec![(i * 7 + p) % 50, i + p]).collect();
                sys.add_module(counted(StreamSource::from_items(
                    &format!("s{p}"),
                    q_src,
                    &items,
                )));
                sys.add_module(counted(Filter::new(
                    &format!("f{p}"),
                    Predicate::field_const(0, CmpOp::Gt, 10 + p),
                    q_src,
                    q_out,
                )));
                sinks.push(sys.add_module(counted(StreamSink::new(&format!("k{p}"), q_out))));
            }
            sinks
        },
        |sys, sinks| sinks.iter().map(|&s| sink_flits(sys, s)).collect::<Vec<_>>(),
    );
}

/// A memory-bound component next to pure-stream components: timed memory
/// wakes interleave with queue wakes of unrelated chains.
#[test]
fn mixed_memory_and_stream_components_bit_identical() {
    const ELEMS: u64 = 64;
    let input: Vec<u8> = (0..ELEMS * 4).map(|i| (i * 13 % 251) as u8).collect();
    assert_engines_agree(
        500_000,
        |sys| {
            let in_base = sys.alloc_mem(input.len());
            let out_base = sys.alloc_mem(ELEMS as usize * 8);
            sys.host_write(in_base, &input);
            let rd_port = sys.register_mem_port(0);
            let wr_port = sys.register_mem_port(0);
            let q_rd = sys.add_queue_with_capacity("rd", 4);
            sys.add_module(counted(MemReader::new(
                "rd",
                MemReaderConfig {
                    base_addr: in_base,
                    elem_bytes: 4,
                    total_elems: ELEMS,
                    rows: RowSpec::Fixed(8),
                },
                rd_port,
                q_rd,
            )));
            sys.add_module(counted(MemWriter::new(
                "wr",
                MemWriterConfig { base_addr: out_base, elem_bytes: 8 },
                wr_port,
                q_rd,
            )));
            let mut sinks = Vec::new();
            for p in 0..3u64 {
                let q_s = sys.add_queue_with_capacity(&format!("sq{p}"), 3);
                let q_r = sys.add_queue_with_capacity(&format!("rq{p}"), 3);
                let items: Vec<Vec<u64>> = (0..25).map(|i| vec![i * 3 + p, i]).collect();
                sys.add_module(counted(StreamSource::from_items(
                    &format!("ss{p}"),
                    q_s,
                    &items,
                )));
                sys.add_module(counted(Reducer::new(
                    &format!("sr{p}"),
                    ReduceOp::Sum,
                    0,
                    q_s,
                    q_r,
                )));
                sinks.push(sys.add_module(counted(StreamSink::new(&format!("sk{p}"), q_r))));
            }
            (out_base, sinks)
        },
        |sys, (out_base, sinks)| {
            (
                sys.host_read(*out_base, ELEMS as usize * 8),
                sinks.iter().map(|&s| sink_flits(sys, s)).collect::<Vec<_>>(),
            )
        },
    );
}

/// A deadlock in some components of a multi-component graph must fire at
/// the same cycle with the same stuck set, in registration order, while
/// the component that can finish does.
#[test]
fn multi_component_deadlock_bit_identical() {
    assert_engines_agree(
        u64::MAX >> 2,
        |sys| {
            // Component 0 completes; components 1 and 2 starve forever.
            let q_done = sys.add_queue("done");
            sys.add_module(counted(StreamSource::from_items("src", q_done, &[vec![1, 2]])));
            sys.add_module(counted(StreamSink::new("sink", q_done)));
            for p in 0..2 {
                let q = sys.add_queue(&format!("never{p}"));
                sys.add_module(counted(StreamSink::new(&format!("stuck{p}"), q)));
            }
        },
        |_, ()| (),
    );
}

/// Both engines must declare a deadlock at the identical cycle with the
/// identical stuck set — the fast engine reaches it via closed-form idle
/// fast-forward rather than ticking through the deadlock window.
#[test]
fn deadlock_cycle_bit_identical() {
    assert_engines_agree(
        u64::MAX >> 2,
        |sys| {
            let q = sys.add_queue("never-closed");
            sys.add_module(counted(StreamSink::new("sink", q)))
        },
        |_, _| (),
    );
}

/// Cycle-limit exhaustion must also fire identically, including when the
/// limit lands inside an all-parked idle stretch.
#[test]
fn cycle_limit_bit_identical() {
    for budget in [100, 511, 512, 513, 10_000] {
        assert_engines_agree(
            budget,
            |sys| {
                let q = sys.add_queue("never-closed");
                sys.add_module(counted(StreamSink::new("sink", q)))
            },
            |_, _| (),
        );
    }
}

/// `flits` single-value flits and no delimiters, so the stream is exactly
/// `flits` pushes long.
fn plain_flits(flits: u64) -> Vec<Flit> {
    (0..flits).map(Flit::val).collect()
}

/// A source refused by a capacity-2 queue whose consumer pops every third
/// cycle, built in both registration orders. The two differ in which side
/// of the in-cycle ordering the wake lands on: with the producer first its
/// slot in the waking cycle has already passed (the reference engine
/// ticked it, refused, before the pop), with the consumer first it has not
/// (the producer ticks after the pop, in the same cycle, and succeeds).
///
/// Expected counts, by hand. Producer first: pushes land on cycles 0, 1, 2
/// and then 4, 7, …, 22 (the cycle after each pop at 3, 6, …, 21), so the
/// source is refused on 3, then on two cycles of every three up to 21:
/// 1 + 6 × 2 = 13; the sink drains the last two flits at 24 and 27 and sees
/// the closed, empty queue at 28: 29 cycles. Consumer first: the sink's
/// cycle-0 tick finds nothing, pushes land on 0, 1 and then 3, 6, …, 24
/// (the cycle *of* each pop), refused on 2 and on two cycles of every three
/// up to 23: 1 + 7 × 2 = 15; drained at 27 and 30, done at 31: 32 cycles.
#[test]
fn refused_push_credit_is_exact_on_both_sides_of_the_slot() {
    const FLITS: u64 = 10;
    for (producer_first, expected_stalls, expected_cycles) in [(true, 13, 29), (false, 15, 32)] {
        let (sys, (q, _)) = assert_engines_agree_on(
            System::new,
            10_000,
            |sys| {
                let q = sys.add_queue_with_capacity("q", 2);
                let src = counted(StreamSource::from_flits("src", q, plain_flits(FLITS)));
                let sink = counted(SlowSink::new("sink", q, 3));
                if producer_first {
                    sys.add_module(src);
                    (q, sys.add_module(sink))
                } else {
                    let id = sys.add_module(sink);
                    sys.add_module(src);
                    (q, id)
                }
            },
            |sys, &(_, sink)| slow_sink_flits(sys, sink),
        );
        assert_eq!(
            (sys.queues().get(q).total_full_stalls(), sys.cycle()),
            (expected_stalls, expected_cycles),
            "producer_first = {producer_first}"
        );
    }
}

/// A producer nobody drains, to both error exits: the module still parked
/// on the full queue must be credited up to the exit cycle, so the error
/// path's `SimStats` and per-queue counts match the reference engine's.
#[test]
fn blocked_producer_counts_match_at_deadlock_and_cycle_limit() {
    const DEADLOCK: u64 = u64::MAX >> 2;
    // The first budget runs into the deadlock detector; the rest exhaust
    // the budget inside the park (around and off the 512-cycle sampling
    // grid).
    for budget in [DEADLOCK, 3, 100, 511, 512, 513, 5_000] {
        let (sys, q) = assert_engines_agree_on(
            System::new,
            budget,
            |sys| {
                let q = sys.add_queue_with_capacity("undrained", 2);
                sys.add_module(counted(StreamSource::from_flits("src", q, plain_flits(5))));
                q
            },
            |_, _| (),
        );
        assert!(budget == DEADLOCK || sys.cycle() == budget);
        // Two pushes land; every later cycle is one refused push.
        assert_eq!(sys.queues().get(q).total_full_stalls(), sys.cycle() - 2, "budget {budget}");
    }
}

/// A run resumed in slices (`run(k)`, `run(2k)`, … until it drains): every
/// `CycleLimit` exit closes the open parks and credits them, and the next
/// slice re-ticks from scratch. All modeled state agrees with the
/// reference engine at every exit, not just the last.
#[test]
fn sliced_run_matches_the_reference_at_every_exit() {
    for slice in [1, 5, 7, 64] {
        let build = |mode: EngineMode| {
            let mut sys = System::new();
            sys.set_engine(mode);
            let q_src = sys.add_queue_with_capacity("src", 2);
            let q_out = sys.add_queue_with_capacity("out", 1);
            let items: Vec<Vec<u64>> =
                (0..6).map(|i| (0..5).map(|j| i * 5 + j).collect()).collect();
            sys.add_module(counted(StreamSource::from_items("src", q_src, &items)));
            sys.add_module(counted(Filter::new(
                "flt",
                Predicate::field_const(0, CmpOp::Ge, 3),
                q_src,
                q_out,
            )));
            let sink = sys.add_module(counted(SlowSink::new("sink", q_out, 4)));
            (sys, sink)
        };
        let (mut reference, ref_sink) = build(EngineMode::Reference);
        let (mut fast, fast_sink) = build(EngineMode::Fast);
        let mut limit = 0;
        loop {
            limit += slice;
            let r = run_to(&mut reference, limit);
            let f = run_to(&mut fast, limit);
            assert_eq!(r, f, "slice {slice}, exit at {limit}");
            assert_eq!(slow_sink_flits(&reference, ref_sink), slow_sink_flits(&fast, fast_sink));
            match r.outcome {
                Ok(_) => break,
                Err(SimError::CycleLimit { .. }) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(fast.stats().backpressure_stalls > 0, "the case must backpressure");
    }
}

/// A memory whose reads spike often, so in-order responses bunch up behind
/// a late head.
fn spiky_memory() -> System {
    System::with_memory(MemoryConfig {
        faults: Some(LatencyFaults { spike_ppm: 400_000, extra_cycles: 60, seed: 11 }),
        ..MemoryConfig::default()
    })
}

/// MemReader -> capacity-1 queue -> slow sink. Returns the reader's tick
/// census under the fast engine after checking both engines agree.
fn backpressured_reader(new_system: fn() -> System, elem_bytes: usize, period: u64) -> TickCensus {
    const ELEMS: u64 = 96;
    let input: Vec<u8> = (0..ELEMS as usize * elem_bytes).map(|i| (i * 7 % 251) as u8).collect();
    let (sys, (rd, _)) = assert_engines_agree_on(
        new_system,
        1_000_000,
        |sys| {
            let base = sys.alloc_mem(input.len());
            sys.host_write(base, &input);
            let port = sys.register_mem_port(0);
            let q = sys.add_queue_with_capacity("rd", 1);
            let rd = sys.add_module(counted(MemReader::new(
                "rd",
                MemReaderConfig {
                    base_addr: base,
                    elem_bytes,
                    total_elems: ELEMS,
                    rows: RowSpec::Fixed(8),
                },
                port,
                q,
            )));
            (rd, sys.add_module(counted(SlowSink::new("sink", q, period))))
        },
        |sys, &(_, sink)| slow_sink_flits(sys, sink),
    );
    sys.module_as::<Counted<MemReader>>(rd).expect("wrapped reader").census()
}

/// A reader held by backpressure while responses are still in flight and
/// its line buffer has room: the park needs the timed wake (the next
/// response coming due changes what its tick does), and the credit must
/// stop there.
#[test]
fn backpressured_reader_with_buffer_space_wakes_on_the_next_response() {
    let census = backpressured_reader(spiky_memory, 8, 3);
    assert!(census.full_timed > 0, "the wake_at arm must be exercised: {census:?}");
}

/// The same reader once its buffer is full: nothing but the output
/// draining can change its tick, so the park carries no timed wake.
#[test]
fn backpressured_reader_with_a_full_buffer_waits_for_the_queue_alone() {
    let census = backpressured_reader(System::new, 1, 5);
    assert!(census.full_untimed > 0, "the untimed arm must be exercised: {census:?}");
}

/// The mechanism itself: under backpressure the fast engine ticks a
/// blocked producer a bounded number of times per flit it moves, where the
/// reference engine ticks it once per cycle.
#[test]
fn blocked_producer_is_ticked_per_flit_not_per_cycle() {
    const FLITS: u64 = 50;
    const PERIOD: u64 = 16;
    let census = |mode: EngineMode| {
        let mut sys = System::new();
        sys.set_engine(mode);
        let q = sys.add_queue_with_capacity("q", 2);
        let src = sys.add_module(counted(StreamSource::from_flits(
            "src",
            q,
            plain_flits(FLITS),
        )));
        sys.add_module(counted(SlowSink::new("sink", q, PERIOD)));
        let stats = sys.run(100_000).expect("drains");
        (sys.module_as::<Counted<StreamSource>>(src).expect("wrapped source").census(), stats)
    };
    let (reference, ref_stats) = census(EngineMode::Reference);
    let (fast, fast_stats) = census(EngineMode::Fast);
    assert_eq!(engine_free(ref_stats), engine_free(fast_stats));
    assert!(fast_stats.module_ticks < ref_stats.module_ticks, "{fast_stats:?}");
    // The reference engine ticks the source on every cycle up to its last
    // push, and the sink paces those…
    assert!(reference.ticks > (FLITS - 3) * PERIOD, "{reference:?}");
    // …the fast engine once per successful and once per refused push.
    assert!(fast.ticks <= 2 * FLITS, "{fast:?}");
    assert!(fast.full_untimed >= FLITS - 3, "every refused flit parks: {fast:?}");
}

/// The in-place field options under backpressure, each behind a slow
/// sink on one-slot queues: an ALU reading field 1 against field 0 of the
/// same flit, a Joiner comparing the left flit's field 1 (an outer join,
/// so both paddings run), a ReadToBases emitting plain two-field rows and
/// one with no `SEQ` input emitting the positions alone.
#[test]
fn in_place_field_options_bit_identical() {
    let row = |i: u64| vec![HwWord::Val(i), HwWord::Val(3 * i + 1), HwWord::Val(i % 4)];
    let rows: Vec<Vec<HwWord>> = (0..30u64).map(row).collect();
    let right: Vec<Vec<HwWord>> =
        (0..20u64).map(|i| vec![HwWord::Val(4 * i + 2), HwWord::Val(i)]).collect();
    // Reads of `2S3M1I1D2M` (8 bases) at positions 10, 30, 50, ...
    let cigar: Vec<u16> = "2S3M1I1D2M".parse::<genesis_types::Cigar>().unwrap().pack().unwrap();
    let per_read = |flits: &dyn Fn(u64) -> Vec<Flit>| -> Vec<Flit> {
        (0..6u64)
            .flat_map(|r| {
                let mut item = flits(r);
                item.push(Flit::end_item());
                item
            })
            .collect()
    };
    let pos = per_read(&|r| vec![Flit::val(10 + 20 * r)]);
    let cigars = per_read(&|_| cigar.iter().map(|&c| Flit::val(u64::from(c))).collect());
    let seq = per_read(&|r| (0..8).map(|i| Flit::val((r + i) % 4)).collect());
    assert_engines_agree(
        50_000,
        |sys| {
            let q = |sys: &mut System, name: &str| sys.add_queue_with_capacity(name, 1);
            let (q_rows, q_alu) = (q(sys, "rows"), q(sys, "alu"));
            sys.add_module(counted(StreamSource::from_field_items(
                "rows",
                q_rows,
                std::slice::from_ref(&rows),
            )));
            let alu = StreamAlu::new("alu", AluOp::Sub, q_rows, 1, AluRhs::Field(0), q_alu);
            sys.add_module(counted(alu));
            let (q_l, q_r, q_j) = (q(sys, "l"), q(sys, "r"), q(sys, "j"));
            let left: Vec<Vec<HwWord>> = rows.iter().map(|r| vec![r[2], r[1]]).collect();
            sys.add_module(counted(StreamSource::from_field_items(
                "l",
                q_l,
                std::slice::from_ref(&left),
            )));
            sys.add_module(counted(StreamSource::from_field_items(
                "r",
                q_r,
                std::slice::from_ref(&right),
            )));
            let joiner = Joiner::new("join", JoinKind::Outer, q_l, q_r, q_j, 1, 1);
            sys.add_module(counted(joiner.with_left_key(1)));
            let (q_pos, q_cigar, q_seq, q_bases) =
                (q(sys, "pos"), q(sys, "cigar"), q(sys, "seq"), q(sys, "bases"));
            sys.add_module(counted(StreamSource::from_flits("pos", q_pos, pos.clone())));
            sys.add_module(counted(StreamSource::from_flits("cigar", q_cigar, cigars.clone())));
            sys.add_module(counted(StreamSource::from_flits("seq", q_seq, seq.clone())));
            let inputs = ReadToBasesInputs { pos: q_pos, cigar: q_cigar, seq: Some(q_seq), qual: None };
            let rtb = ReadToBases::new("rtb", inputs, q_bases).with_rows(2);
            sys.add_module(counted(rtb));
            let (q_pos, q_cigar, q_ref) = (q(sys, "pos1"), q(sys, "cigar1"), q(sys, "ref"));
            sys.add_module(counted(StreamSource::from_flits("pos1", q_pos, pos.clone())));
            sys.add_module(counted(StreamSource::from_flits("cigar1", q_cigar, cigars.clone())));
            let inputs = ReadToBasesInputs { pos: q_pos, cigar: q_cigar, seq: None, qual: None };
            sys.add_module(counted(ReadToBases::new("rtb1", inputs, q_ref).with_rows(1)));
            [q_alu, q_j, q_bases, q_ref]
                .map(|out| sys.add_module(counted(SlowSink::new("sink", out, 3))))
        },
        |sys, sinks| sinks.map(|sink| slow_sink_flits(sys, sink)),
    );
}

/// A GROUP BY tail on a done signal: RMW updates of clustered keys (so the
/// RAW interlock stalls), the updater closing a queue that carries no
/// flits, and a drain of the nonempty keys behind a slow sink. The drain
/// waits in one park and wakes once, when the signal closes.
#[test]
fn done_signal_parks_a_drain_once_and_wakes_it_once() {
    let keys: Vec<u64> = (0..60u64).map(|i| 3 + (i * 7 % 13) / 2 * 3).collect();
    let (sys, (drain, signal, _, sink)) = assert_engines_agree_on(
        System::new,
        50_000,
        |sys| {
            let spm = sys.add_spm("counts", 24, 8);
            let (q_keys, signal, q_out) =
                (sys.add_queue("keys"), sys.add_queue("done"), sys.add_queue("out"));
            let source = StreamSource::from_items("keys", q_keys, std::slice::from_ref(&keys));
            sys.add_module(counted(source));
            let rmw = SpmUpdateMode::Rmw { op: RmwOp::Increment };
            let updater = SpmUpdater::new("count", spm, rmw, 0, 0, q_keys).with_addr_offset(3);
            sys.add_module(counted(updater.with_done_signal(signal)));
            let mode = SpmReadMode::Drain { trigger: signal, len: 24 };
            let reader = SpmReader::new("drain", vec![spm], mode, 3, q_out).with_skip_empty();
            let drain = sys.add_module(counted(reader));
            (drain, signal, spm, sys.add_module(counted(SlowSink::new("sink", q_out, 2))))
        },
        |sys, &(_, _, spm, sink)| {
            (slow_sink_flits(sys, sink), sys.spms().get(spm).contents().to_vec())
        },
    );
    assert_eq!(sys.queues().get(signal).total_pushed(), 0, "a done signal carries no flits");
    let drained: Vec<(u64, u64)> = slow_sink_flits(&sys, sink)
        .iter()
        .filter(|f| !f.is_end_item())
        .map(|f| (f.field(0).val_or_zero(), f.field(1).val_or_zero()))
        .collect();
    let mut expected = std::collections::BTreeMap::new();
    for &k in &keys {
        *expected.entry(k).or_insert(0u64) += 1;
    }
    assert_eq!(drained, expected.into_iter().collect::<Vec<_>>(), "nonempty keys, ascending");
    let census = sys.module_as::<Counted<SpmReader>>(drain).expect("counted drain").census();
    // One park before the signal, none while draining: the 7 nonempty
    // keys fit the slow sink's 16-flit queue.
    assert_eq!(census.parks, 1, "{census:?}");
}

/// A range reader gated on a load's done signal: its wait costs the same
/// ticks and parks however long the load is, where a forwarded load cost
/// one tick per loaded flit.
#[test]
fn done_signal_gate_wait_does_not_scale_with_the_load() {
    let census = |load: u64| {
        let vals: Vec<u64> = (0..load).map(|i| i * 5 % 7).collect();
        let (sys, (reader, gate)) = assert_engines_agree_on(
            System::new,
            50_000,
            |sys| {
                let spm = sys.add_spm("ref", load as usize, 8);
                let (q_vals, gate) = (sys.add_queue("vals"), sys.add_queue("gate"));
                let (q_start, q_end, q_out) =
                    (sys.add_queue("start"), sys.add_queue("end"), sys.add_queue("out"));
                let source = StreamSource::from_items("vals", q_vals, std::slice::from_ref(&vals));
                sys.add_module(counted(source));
                let seq = SpmUpdateMode::Sequential { base: 0 };
                let load = SpmUpdater::new("load", spm, seq, 0, 0, q_vals).with_done_signal(gate);
                sys.add_module(counted(load));
                sys.add_module(counted(StreamSource::from_items("s", q_start, &[vec![102, 110]])));
                sys.add_module(counted(StreamSource::from_items("e", q_end, &[vec![106, 112]])));
                let mode = SpmReadMode::Range { start: q_start, end: q_end };
                let range = SpmReader::new("range", vec![spm], mode, 100, q_out);
                let reader = sys.add_module(counted(range.with_gates(vec![gate])));
                sys.add_module(counted(SlowSink::new("sink", q_out, 1)));
                (reader, gate)
            },
            |sys, _| sys.stats().cycles,
        );
        assert_eq!(sys.queues().get(gate).total_pushed(), 0, "a done signal carries no flits");
        sys.module_as::<Counted<SpmReader>>(reader).expect("counted reader").census()
    };
    let (short, long) = (census(32), census(96));
    assert_eq!(short, long, "the gated wait must not tick per loaded flit");
    assert!(short.ticks < 32, "{short:?}");
}

/// A done signal nobody closes — its updater's input never ends — stops
/// the run in a deadlock that names the waiting drain, on both engines.
#[test]
fn unclosed_done_signal_deadlocks_naming_the_reader() {
    for mode in [EngineMode::Reference, EngineMode::Fast] {
        let mut sys = System::new();
        sys.set_engine(mode);
        let spm = sys.add_spm("counts", 4, 8);
        let (q_keys, signal, q_out) =
            (sys.add_queue("keys"), sys.add_queue("done"), sys.add_queue("out"));
        let rmw = SpmUpdateMode::Rmw { op: RmwOp::Increment };
        let updater = SpmUpdater::new("count", spm, rmw, 0, 0, q_keys);
        sys.add_module(counted(updater.with_done_signal(signal)));
        let drain = SpmReadMode::Drain { trigger: signal, len: 4 };
        sys.add_module(counted(SpmReader::new("drain", vec![spm], drain, 0, q_out)));
        sys.add_module(counted(StreamSink::new("sink", q_out)));
        match sys.run(1_000_000) {
            Err(SimError::Deadlock { stuck, .. }) => {
                assert!(stuck.iter().any(|l| l == "drain"), "{mode:?}: {stuck:?}");
            }
            other => panic!("{mode:?}: expected a deadlock, got {other:?}"),
        }
    }
}

/// A multi-column writer whose columns collide on one memory channel
/// (every column's k-th line maps to channel k mod 4), behind a source of
/// one row per cycle: the pending lines retry while rows keep coming.
#[test]
fn multi_column_writer_bit_identical() {
    const ROWS: u64 = 100;
    let rows: Vec<Vec<HwWord>> =
        (0..ROWS).map(|i| vec![HwWord::Val(i), HwWord::Val(i * i), HwWord::Del]).collect();
    assert_engines_agree(
        50_000,
        |sys| {
            let q = sys.add_queue_with_capacity("rows", 2);
            let source = StreamSource::from_field_items("rows", q, std::slice::from_ref(&rows));
            sys.add_module(counted(source));
            let cols: Vec<WriterColumn> = [(1, 8), (0, 4), (2, 2)]
                .into_iter()
                .map(|(field, elem_bytes)| {
                    let base_addr = sys.alloc_mem(1024);
                    let port = sys.register_mem_port(0);
                    WriterColumn { field, cfg: MemWriterConfig { base_addr, elem_bytes }, port }
                })
                .collect();
            let regions: Vec<u64> = cols.iter().map(|c| c.cfg.base_addr).collect();
            sys.add_module(counted(MemWriter::columns("wr", cols, q)));
            regions
        },
        |sys, regions| regions.iter().map(|&at| sys.host_read(at, 1024)).collect::<Vec<_>>(),
    );
}
